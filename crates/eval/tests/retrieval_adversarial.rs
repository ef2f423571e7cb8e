//! Adversarial inputs for the retrieval index: it must degrade into
//! **typed errors or well-defined answers**, never panics or
//! nondeterminism, on the corruption shapes the data plane lets through.

use desalign_eval::{csls_retrieve_top_k, evaluate_ranking_embeddings, IndexKind, ItemIndex, IvfParams, RetrievalConfig};
use desalign_tensor::Matrix;
use desalign_util::DefectClass;

fn ivf_cfg(nprobe: usize) -> RetrievalConfig {
    RetrievalConfig { kind: IndexKind::Ivf, ivf: IvfParams { nprobe, ..IvfParams::default() } }
}

fn both_backends() -> Vec<RetrievalConfig> {
    vec![RetrievalConfig { kind: IndexKind::Exact, ..RetrievalConfig::default() }, ivf_cfg(4)]
}

#[test]
fn duplicate_embeddings_break_ties_by_lowest_id() {
    // Four identical items: every score ties, so the deterministic
    // (score desc, id asc) order must return ids in ascending order.
    let row = vec![0.3f32, -0.7, 0.2];
    let items = Matrix::from_vec(4, 3, row.iter().cloned().cycle().take(12).collect());
    for cfg in both_backends() {
        let index = ItemIndex::build(&items, &cfg).expect("duplicates are legal input");
        let ids: Vec<usize> = index.search(&row, 3).unwrap().iter().map(|&(i, _)| i).collect();
        assert_eq!(ids, vec![0, 1, 2], "{:?} must tie-break by entity id", cfg.kind);
        assert_eq!(index.rank_of(&row, 2).unwrap(), 1, "ties never count as strictly greater");
    }
}

#[test]
fn all_zero_rows_are_tolerated_and_rank_last() {
    // A zero row cannot be normalized; the shared 1e-9-eps normalization
    // leaves it untouched, so it scores 0 against everything and loses to
    // any positively-correlated candidate — without poisoning the rest.
    let items = Matrix::from_vec(3, 2, vec![1.0, 0.0, 0.0, 0.0, 0.9, 0.1]);
    for cfg in both_backends() {
        let index = ItemIndex::build(&items, &cfg).expect("zero rows are legal input");
        let top = index.search(&[1.0, 0.05], 3).unwrap();
        assert_eq!(top.len(), 3);
        assert_eq!(top[0].0, 0, "{:?}: unit x-axis item must win", cfg.kind);
        assert_eq!(top[2].0, 1, "{:?}: the zero row must rank last", cfg.kind);
        assert!(top.iter().all(|&(_, s)| s.is_finite()), "no NaN/inf may leak out");
    }
}

#[test]
fn nan_poisoned_rows_are_rejected_with_typed_errors() {
    let mut bad = Matrix::from_vec(3, 2, vec![1.0, 0.0, f32::NAN, 1.0, 0.0, 1.0]);
    let good = Matrix::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]);

    for cfg in both_backends() {
        let err = ItemIndex::build(&bad, &cfg).expect_err("NaN items must be rejected");
        assert_eq!(err.class, DefectClass::NonFiniteFeature);
        let index = ItemIndex::build(&good, &cfg).unwrap();
        let err = index.search_batch(&bad, 1).expect_err("NaN queries must be rejected");
        assert_eq!(err.class, DefectClass::NonFiniteFeature);
        let err = index.rank_of(bad.row(1), 0).expect_err("NaN queries must not be ranked");
        assert_eq!(err.class, DefectClass::NonFiniteFeature);
    }

    bad[(1, 0)] = f32::INFINITY;
    let err = ItemIndex::build(&bad, &RetrievalConfig::default()).expect_err("inf rows must be rejected");
    assert_eq!(err.class, DefectClass::NonFiniteFeature);

    // The whole embedding-level evaluation path surfaces the same error
    // instead of panicking mid-metric or scoring the poisoned query as a
    // hit (the gather keeps only pair rows, so the pair must point at the
    // poisoned row).
    bad[(1, 0)] = f32::NAN;
    for (x_s, x_t) in [(&bad, &good), (&good, &bad)] {
        let err = evaluate_ranking_embeddings(x_s, x_t, &[(1, 1)], &RetrievalConfig::default())
            .expect_err("poisoned embeddings must fail evaluation");
        assert_eq!(err.class, DefectClass::NonFiniteFeature);
    }
}

#[test]
fn dimension_mismatch_is_a_typed_error_not_a_panic() {
    let q = Matrix::from_vec(2, 3, vec![0.0; 6]);
    let t = Matrix::from_vec(2, 4, vec![0.0; 8]);
    for cfg in both_backends() {
        let index = ItemIndex::build(&t, &cfg).unwrap();
        let err = index.search_batch(&q, 1).expect_err("dimension mismatch must be a typed error");
        assert_eq!(err.class, DefectClass::DimensionMismatch);
        let err = index.rank_of(q.row(0), 0).expect_err("dimension mismatch must be a typed error");
        assert_eq!(err.class, DefectClass::DimensionMismatch);
    }
}

#[test]
fn k_larger_than_n_returns_everything_in_order() {
    let items = Matrix::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]);
    let queries = Matrix::from_vec(1, 2, vec![1.0, 0.2]);
    for cfg in both_backends() {
        let index = ItemIndex::build(&items, &cfg).expect("valid input");
        let top = index.search(queries.row(0), 100).unwrap();
        assert_eq!(top.len(), 2, "{:?}: overlong k clamps to n", cfg.kind);
        assert_eq!(top[0].0, 0);
        let lists = index.search_batch(&queries, 100).unwrap();
        assert_eq!(lists[0].len(), 2);
    }
}

#[test]
fn empty_index_and_empty_queries_are_benign() {
    let empty = Matrix::from_vec(0, 3, Vec::new());
    let queries = Matrix::from_vec(2, 3, vec![1.0, 0.0, 0.0, 0.0, 1.0, 0.0]);
    for cfg in both_backends() {
        let index = ItemIndex::build(&empty, &cfg).expect("empty item set is legal");
        assert_eq!(index.num_items(), 0);
        assert!(index.search(queries.row(0), 5).unwrap().is_empty(), "{:?}: no items → empty top-k", cfg.kind);

        let index = ItemIndex::build(&queries, &cfg).expect("valid input");
        assert!(index.search_batch(&empty, 3).unwrap().is_empty(), "{:?}: no queries → no lists", cfg.kind);
    }
}

#[test]
fn degenerate_ivf_and_csls_knobs_are_config_errors() {
    let m = Matrix::from_vec(3, 2, vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0]);

    let err = ItemIndex::build(&m, &ivf_cfg(0)).expect_err("nprobe = 0 must be rejected");
    assert_eq!(err.class, DefectClass::Config);

    let cfg = RetrievalConfig::default();
    let err = csls_retrieve_top_k(&m, &m, 0, 1, &cfg).expect_err("k = 0 must be rejected");
    assert_eq!(err.class, DefectClass::Config);
    let err = csls_retrieve_top_k(&m, &m, 4, 1, &cfg).expect_err("k > n must be rejected, not clamped");
    assert_eq!(err.class, DefectClass::Config);
}

#[test]
fn tie_breaks_are_identical_across_backends() {
    // Two clusters of duplicates → heavy score ties. Both backends must
    // produce the same deterministic list.
    let a = [0.6f32, 0.8];
    let b = [-0.8f32, 0.6];
    let mut data = Vec::new();
    for i in 0..10 {
        data.extend_from_slice(if i % 2 == 0 { &a } else { &b });
    }
    let items = Matrix::from_vec(10, 2, data);
    let search = |cfg: &RetrievalConfig| -> Vec<(usize, u32)> {
        let index = ItemIndex::build(&items, cfg).unwrap();
        index.search(&a, 7).unwrap().iter().map(|&(i, s)| (i, s.to_bits())).collect()
    };
    let reference = search(&RetrievalConfig::default());
    assert_eq!(
        reference.iter().take(5).map(|&(i, _)| i).collect::<Vec<_>>(),
        vec![0, 2, 4, 6, 8],
        "even ids (the query's own cluster) must come first, ascending"
    );
    assert_eq!(search(&ivf_cfg(16)), reference, "full-probe IVF changed the tie order");
}
