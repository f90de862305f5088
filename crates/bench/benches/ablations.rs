//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! * symmetry breaking in the model finder (§4.2 substrate);
//! * the §4.4 disequality transformation (diseq-free vs diseq-heavy);
//! * saturation budget sensitivity on deep counterexamples;
//! * cyclic vs plain induction (the §9 extension);
//! * phase ordering inside the hybrid portfolio (§8 discussion);
//! * subset-construction determinization cost (NFTA substrate).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ringen_automata::Nfta;
use ringen_benchgen::{programs, shapes};
use ringen_core::saturation::{saturate_guarded, SaturationConfig};
use ringen_core::{preprocess, Guard};
use ringen_elem::ElemConfig;
use ringen_fmf::{find_model_guarded, FinderConfig};
use ringen_induction::{solve_induction, InductionConfig};
use ringen_regelem::{solve_regelem_guarded, RegElemConfig};

fn bench_symmetry_breaking(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_symmetry_breaking");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));
    let sys = shapes::mod_k_nat(4, 0, 1);
    let pre = preprocess(&sys);
    let guard = Guard::new();
    for on in [true, false] {
        let cfg = FinderConfig {
            symmetry_breaking: on,
            ..FinderConfig::default()
        };
        group.bench_with_input(
            BenchmarkId::new("mod4", if on { "on" } else { "off" }),
            &cfg,
            |bench, cfg| {
                bench.iter(|| {
                    find_model_guarded(&pre.skolemized, cfg, &guard)
                        .unwrap()
                        .0
                        .model()
                })
            },
        );
    }
    group.finish();
}

fn bench_diseq_cost(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_diseq");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));
    // §4.4's observation: disequality constraints grow the reduction and
    // make finite models scarcer.
    let plain = shapes::mod_k_nat(2, 0, 1);
    let diseq = shapes::shallow_diseq(2, 0);
    let guard = Guard::new();
    for (name, sys) in [("positive-eq", &plain), ("diseq", &diseq)] {
        group.bench_with_input(BenchmarkId::new("find_model", name), sys, |bench, sys| {
            let pre = preprocess(sys);
            bench.iter(|| {
                find_model_guarded(&pre.skolemized, &FinderConfig::default(), &guard)
                    .unwrap()
                    .0
                    .model()
            })
        });
    }
    group.finish();
}

fn bench_saturation_depth(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_saturation_depth");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));
    let guard = Guard::new();
    for depth in [4usize, 16, 32] {
        let sys = shapes::unsat_chain(depth);
        group.bench_with_input(BenchmarkId::new("refute", depth), &sys, |bench, sys| {
            bench.iter(|| saturate_guarded(sys, &SaturationConfig::default(), &guard).0)
        });
    }
    group.finish();
}

fn bench_cyclic_induction(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_cyclic_induction");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));
    let sys = programs::even();
    for (name, cfg) in [
        ("plain", InductionConfig::quick()),
        ("cyclic", InductionConfig::cyclic()),
    ] {
        group.bench_with_input(BenchmarkId::new("even", name), &cfg, |bench, cfg| {
            bench.iter(|| solve_induction(&sys, cfg).expect("well-sorted").0)
        });
    }
    group.finish();
}

fn bench_hybrid_phase_order(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_hybrid_phase_order");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_millis(500));
    // On Even (a Reg program) the regular-first ordering answers in the
    // first phase; an elementary-first portfolio pays a full diverging
    // template sweep before the later phases succeed — the cost the §8
    // conjecture's ordering avoids.
    let sys = programs::even();
    let regular_first = RegElemConfig::quick();
    let elementary_first = RegElemConfig {
        regular: None,
        elementary: Some(ElemConfig {
            max_assignments: 2_000,
            ..ElemConfig::quick()
        }),
        ..RegElemConfig::quick()
    };
    let guard = Guard::new();
    for (name, cfg) in [
        ("regular-first", &regular_first),
        ("elementary-first", &elementary_first),
    ] {
        group.bench_with_input(BenchmarkId::new("even", name), cfg, |bench, cfg| {
            bench.iter(|| solve_regelem_guarded(&sys, cfg, &guard).0.is_sat())
        });
    }
    group.finish();
}

fn bench_nfta_determinization(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_nfta_determinization");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));
    // Union of k residue automata: juxtaposition is linear, the subset
    // construction pays the deterministic blow-up (≤ lcm of moduli).
    let (_sig, nat, z, s) = ringen_terms::signature_helpers::nat_signature();
    for k in [2usize, 3, 4] {
        let mut union = Nfta::new();
        for m in 2..2 + k {
            let mut a = Nfta::new();
            let states: Vec<_> = (0..m).map(|_| a.add_state(nat)).collect();
            a.add_transition(z, vec![], &[states[0]]);
            for i in 0..m {
                a.add_transition(s, vec![states[i]], &[states[(i + 1) % m]]);
            }
            a.add_final(states[0]);
            union = union.union(&a);
        }
        group.bench_with_input(BenchmarkId::new("residues", k), &union, |bench, u| {
            bench.iter(|| u.determinize().dfta().state_count())
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_symmetry_breaking,
    bench_diseq_cost,
    bench_saturation_depth,
    bench_cyclic_induction,
    bench_hybrid_phase_order,
    bench_nfta_determinization
);
criterion_main!(benches);
