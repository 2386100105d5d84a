// criterion_group!/criterion_main! expand to undocumented items.
#![allow(missing_docs)]

//! Criterion benchmarks of the GraphBLAS-style sparse kernels that power the
//! RedisGraph-like baseline: boolean `mxm`, `vxm`, element-wise updates, and
//! matrix powers.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use graph_store::NodeId;
use sparse::{ops, MatrixBuilder, SparseBoolMatrix, SparseBoolVector};

fn adjacency_matrix(nodes: usize, seed: u64) -> SparseBoolMatrix {
    let graph = graph_gen::uniform::generate(nodes, 6.0, seed);
    let mut builder = MatrixBuilder::new(nodes, nodes);
    for r in 0..graph.id_bound() as usize {
        for &(c, _) in graph.neighbors(NodeId(r as u64)) {
            builder.set(r, c.index());
        }
    }
    builder.build()
}

fn bench_sparse(c: &mut Criterion) {
    let mut group = c.benchmark_group("sparse_ops");
    group.sample_size(20);

    for &n in &[2_000usize, 10_000] {
        let adj = adjacency_matrix(n, 7);
        let q = {
            let mut b = MatrixBuilder::new(256, n);
            for row in 0..256 {
                b.set(row, (row * 37) % n);
            }
            b.build()
        };
        group.bench_with_input(BenchmarkId::new("mxm_q_adj", n), &n, |bench, _| {
            bench.iter(|| ops::mxm(&q, &adj))
        });
        group.bench_with_input(BenchmarkId::new("matrix_power_3", n), &n, |bench, _| {
            bench.iter(|| ops::matrix_power(&adj, 3))
        });
        let frontier = SparseBoolVector::from_indices(n, (0..64).map(|i| (i * 13) % n).collect());
        group.bench_with_input(BenchmarkId::new("vxm_frontier", n), &n, |bench, _| {
            bench.iter(|| ops::vxm(&frontier, &adj))
        });
        let delta = SparseBoolMatrix::from_triplets(
            n,
            n,
            &(0..1024).map(|i| ((i * 31) % n, (i * 17) % n)).collect::<Vec<_>>(),
        );
        group.bench_with_input(BenchmarkId::new("ewise_union_delta", n), &n, |bench, _| {
            bench.iter(|| ops::ewise_union(&adj, &delta))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_sparse);
criterion_main!(benches);
