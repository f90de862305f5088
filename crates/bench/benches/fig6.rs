//! Criterion bench behind Figure 6: cost of the model → tree-automaton
//! conversion (Theorem 1) and of the independent inductiveness check,
//! as model size grows (mod-k programs have k-state least models).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ringen_automata::AutStore;
use ringen_benchgen::shapes;
use ringen_core::{check_inductive_guarded, preprocess, Guard, RegularInvariant};
use ringen_fmf::{find_model_guarded, FinderConfig};

fn bench_fig6(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig6");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));
    let guard = Guard::new();
    for k in [2usize, 3, 4, 5, 6] {
        let sys = shapes::mod_k_nat(k, 0, 1);
        let pre = preprocess(&sys);
        let model = find_model_guarded(&pre.skolemized, &FinderConfig::default(), &guard)
            .unwrap()
            .0
            .model()
            .expect("mod-k has a k-state model");
        group.bench_with_input(BenchmarkId::new("model_to_automaton", k), &k, |bench, _| {
            bench.iter(|| RegularInvariant::from_model(&pre.system, &model))
        });
        let inv = RegularInvariant::from_model(&pre.system, &model);
        group.bench_with_input(BenchmarkId::new("inductive_check", k), &k, |bench, _| {
            // A fresh store per check: a warm one would measure memo hits.
            bench.iter(|| {
                check_inductive_guarded(&pre.system, &inv, &mut AutStore::new(), &guard)
                    .is_inductive()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fig6);
criterion_main!(benches);
