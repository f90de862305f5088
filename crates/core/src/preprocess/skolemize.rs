//! Skolemization of ∀∃ query clauses for the model finder.
//!
//! The §5 STLC case study needs queries of the shape
//! `∀ū ∃v̄. R(t̄(ū, v̄)) → ⊥`. First-order Skolemization replaces each
//! existential variable `v` by a fresh *free* function symbol applied to
//! the universals, `sk_v(ū)`, preserving satisfiability over EUF — and
//! the MACE-style finder builds tables for free symbols natively.
//!
//! The Herbrand transfer needs one extra check on the way back: the
//! Skolem witnesses the model picks must be *reachable* domain elements
//! (ones denoted by ground terms), otherwise the finite model does not
//! induce a Herbrand model of the ∀∃ clause.
//! [`crate::check_inductive_guarded`] performs exactly that check on the
//! un-Skolemized system, so unsound models are rejected rather than
//! trusted.

use ringen_chc::{Atom, ChcSystem, Clause};
use ringen_terms::{FuncId, Substitution, Term};

/// Result of the pass.
#[derive(Debug, Clone)]
pub struct Skolemization {
    /// The purely universal system (existential variables replaced by
    /// Skolem applications). The signature gains one free symbol per
    /// eliminated variable.
    pub system: ChcSystem,
    /// The Skolem symbols introduced.
    pub skolem_funcs: Vec<FuncId>,
}

/// Runs the pass. Clauses without existential variables pass through
/// unchanged.
///
/// # Panics
///
/// Panics if an existential variable occurs in a clause constraint
/// (ruled out by [`ChcSystem::well_sorted`]).
pub fn skolemize(sys: &ChcSystem) -> Skolemization {
    let mut out = ChcSystem::new(sys.sig.clone());
    out.rels = sys.rels.clone();
    let mut skolem_funcs = Vec::new();

    for (ci, clause) in sys.clauses.iter().enumerate() {
        if clause.exist_vars.is_empty() {
            out.clauses.push(clause.clone());
            continue;
        }
        let universals: Vec<_> = clause
            .vars
            .vars()
            .filter(|v| !clause.exist_vars.contains(v))
            .collect();
        let u_sorts: Vec<_> = universals
            .iter()
            .map(|&v| clause.vars.sort(v).expect("var in context"))
            .collect();
        let u_terms: Vec<Term> = universals.iter().map(|&v| Term::var(v)).collect();
        let mut sub = Substitution::new();
        for (k, &v) in clause.exist_vars.iter().enumerate() {
            let sort = clause.vars.sort(v).expect("var in context");
            let name = format!("sk-{ci}-{k}");
            let f = out.sig.add_free(name, u_sorts.clone(), sort);
            skolem_funcs.push(f);
            sub.bind(v, Term::app(f, u_terms.clone()));
        }
        let body: Vec<Atom> = clause
            .body
            .iter()
            .map(|a| Atom::new(a.pred, a.args.iter().map(|t| sub.apply(t)).collect()))
            .collect();
        let head = clause
            .head
            .as_ref()
            .map(|a| Atom::new(a.pred, a.args.iter().map(|t| sub.apply(t)).collect()));
        assert!(
            clause.constraints.is_empty(),
            "existential clauses must be constraint-free before skolemization"
        );
        let mut c = Clause::new(clause.vars.clone(), Vec::new(), body, head);
        c.name = clause.name.clone();
        out.clauses.push(c);
    }

    Skolemization {
        system: out,
        skolem_funcs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ringen_chc::SystemBuilder;

    #[test]
    fn existential_query_gets_skolem_functions() {
        // ∀e ∃a. p(e, a) → ⊥.
        let mut b = SystemBuilder::new();
        let nat = b.sort("Nat");
        let _z = b.ctor("Z", vec![], nat);
        let _s = b.ctor("S", vec![nat], nat);
        let p = b.pred("p", vec![nat, nat]);
        b.clause(|c| {
            let e = c.var("e", nat);
            let a = c.var("a", nat);
            c.body(p, vec![c.v(e), c.v(a)]);
        });
        let mut sys = b.finish();
        let a = sys.clauses[0].vars.vars().nth(1).unwrap();
        sys.clauses[0].exist_vars = vec![a];
        assert!(sys.well_sorted().is_ok());

        let sk = skolemize(&sys);
        assert_eq!(sk.skolem_funcs.len(), 1);
        let q = &sk.system.clauses[0];
        assert!(q.exist_vars.is_empty());
        // The second argument is now sk(e).
        let atom = &q.body[0];
        assert!(matches!(&atom.args[1], Term::App(f, _) if *f == sk.skolem_funcs[0]));
        assert!(sk.system.well_sorted().is_ok());
    }

    #[test]
    fn universal_clauses_pass_through() {
        let mut b = SystemBuilder::new();
        let nat = b.sort("Nat");
        let _z = b.ctor("Z", vec![], nat);
        let p = b.pred("p", vec![nat]);
        b.clause(|c| {
            let x = c.var("x", nat);
            c.head(p, vec![c.v(x)]);
        });
        let sys = b.finish();
        let sk = skolemize(&sys);
        assert!(sk.skolem_funcs.is_empty());
        assert_eq!(sk.system.clauses.len(), 1);
    }
}
