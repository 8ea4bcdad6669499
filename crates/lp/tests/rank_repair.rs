//! Rank-deficient bases: the factorization reports the dependent basis
//! positions and the uncovered rows, and warm starts repair themselves
//! from that report by swapping in slacks.

use lips_lp::lu::DenseLu;
use lips_lp::revised::{LuBackend, RevisedOptions, RevisedSimplex};
use lips_lp::slu::SparseLu;
use lips_lp::{solve_dual_with_options, BasisStatus, Cmp, Model, WarmOutcome, WarmStart};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};

const PIVOT_TOL: f64 = 1e-9;

/// A random sparse `m × m` matrix (column lists) with a boosted diagonal,
/// of which `planted` columns are then overwritten with random
/// combinations of two kept columns — so the rank is `m − planted`.
fn planted_matrix(m: usize, planted: usize, seed: u64) -> Vec<Vec<(usize, f64)>> {
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    let mut dense = vec![0.0f64; m * m];
    for i in 0..m {
        for j in 0..m {
            if i == j || rng.gen_bool(0.08) {
                dense[i * m + j] = rng.gen_range(-1.0..1.0);
            }
        }
        dense[i * m + i] += 3.0;
    }
    let planted = planted.min(m.saturating_sub(1));
    let mut is_planted = vec![false; m];
    let mut n = 0;
    while n < planted {
        let k = rng.gen_range(0..m);
        if !is_planted[k] {
            is_planted[k] = true;
            n += 1;
        }
    }
    let kept: Vec<usize> = (0..m).filter(|&j| !is_planted[j]).collect();
    for k in (0..m).filter(|&j| is_planted[j]) {
        let a = kept[rng.gen_range(0..kept.len())];
        let b = kept[rng.gen_range(0..kept.len())];
        let (ca, cb) = (rng.gen_range(-2.0..2.0), rng.gen_range(-2.0..2.0));
        for i in 0..m {
            dense[i * m + k] = ca * dense[i * m + a] + cb * dense[i * m + b];
        }
    }
    (0..m)
        .map(|j| {
            (0..m)
                .filter_map(|i| {
                    let v = dense[i * m + j];
                    (v != 0.0).then_some((i, v))
                })
                .collect()
        })
        .collect()
}

fn to_dense(cols: &[Vec<(usize, f64)>]) -> Vec<f64> {
    let m = cols.len();
    let mut a = vec![0.0; m * m];
    for (j, col) in cols.iter().enumerate() {
        for &(i, v) in col {
            a[i * m + j] = v;
        }
    }
    a
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn reported_deficiency_matches_rank_and_repairs(
        m in 1usize..=60,
        planted in 0usize..8,
        seed in 0u64..1_000_000,
        tiered in any::<bool>(),
    ) {
        let cols = planted_matrix(m, planted, seed);
        let oracle = match DenseLu::factorize_revealing(m, to_dense(&cols), PIVOT_TOL) {
            Ok(_) => 0,
            Err(def) => def.dependent.len(),
        };
        // Tiers change which columns come out dependent, never how many.
        let tiers: Vec<u8> = (0..m).map(|j| ((j as u64 ^ seed) % 3) as u8).collect();
        let tiers = tiered.then_some(tiers.as_slice());
        let mut work = cols.clone();
        match SparseLu::factorize_revealing(m, &mut work, PIVOT_TOL, tiers) {
            Ok(_) => prop_assert_eq!(oracle, 0),
            Err(def) => {
                // Dependent count = m − rank.
                prop_assert_eq!(def.dependent.len(), oracle);
                prop_assert_eq!(def.uncovered.len(), def.dependent.len());
                // The pivoted part — kept columns on the rows that are not
                // uncovered — is square and nonsingular, so the uncovered
                // rows are exactly the ones no pivot took.
                let kept: Vec<usize> =
                    (0..m).filter(|j| !def.dependent.contains(j)).collect();
                let pivot_rows: Vec<usize> =
                    (0..m).filter(|r| !def.uncovered.contains(r)).collect();
                let r = kept.len();
                prop_assert_eq!(pivot_rows.len(), r);
                let mut sub = vec![0.0; r * r];
                for (jj, &j) in kept.iter().enumerate() {
                    for &(i, v) in &cols[j] {
                        if let Ok(ii) = pivot_rows.binary_search(&i) {
                            sub[ii * r + jj] = v;
                        }
                    }
                }
                prop_assert!(DenseLu::factorize(r, sub, PIVOT_TOL).is_ok());
                // Swapping in the uncovered rows' unit columns repairs it.
                let mut repaired = cols.clone();
                for (&p, &row) in def.dependent.iter().zip(&def.uncovered) {
                    repaired[p] = vec![(row, 1.0)];
                }
                prop_assert!(SparseLu::factorize(m, &mut repaired, PIVOT_TOL).is_ok());
            }
        }
    }
}

/// `min −Σ x` over `m` rows `x_i (+ d_i) ≤ 1`, where each row in `dups`
/// also carries a duplicate column `d_i`, and a warm start that marks every
/// `x` basic except on the `holes` rows and every duplicate basic too: a
/// full-count seeded basis that is rank-deficient by `dups.len()`.
fn duplicated_basis(m: usize, dups: &[usize], holes: &[usize]) -> (Model, WarmStart) {
    let mut model = Model::minimize();
    let xs: Vec<_> = (0..m)
        .map(|i| model.add_var(format!("x{i}"), 0.0, 1.0, -1.0))
        .collect();
    let ds: Vec<_> = dups
        .iter()
        .map(|&i| model.add_var(format!("d{i}"), 0.0, 1.0, -1.0))
        .collect();
    for (i, &x) in xs.iter().enumerate() {
        let mut terms = vec![(x, 1.0)];
        if let Some(k) = dups.iter().position(|&d| d == i) {
            terms.push((ds[k], 1.0));
        }
        model.add_constraint(terms, Cmp::Le, 1.0);
    }
    let mut ws = WarmStart::new();
    for i in 0..m {
        let status = if holes.contains(&i) {
            BasisStatus::AtLower
        } else {
            BasisStatus::Basic
        };
        ws.set_var(format!("x{i}"), status);
    }
    for &i in dups {
        ws.set_var(format!("d{i}"), BasisStatus::Basic);
    }
    (model, ws)
}

#[test]
fn duplicated_columns_are_repaired_under_both_backends() {
    let dups = [3, 17, 30];
    let (model, ws) = duplicated_basis(40, &dups, &[5, 22, 38]);
    for backend in [LuBackend::Sparse, LuBackend::Dense] {
        let opts = RevisedOptions {
            backend,
            ..Default::default()
        };
        let sol = RevisedSimplex::with_options(opts.clone())
            .solve_with_warm_start(&model, Some(&ws))
            .unwrap();
        assert_eq!(sol.stats().warm, WarmOutcome::WarmRepaired, "{backend:?}");
        assert_eq!(sol.stats().rank_repairs, 1, "{backend:?}");
        assert_eq!(sol.stats().rank_dependents, dups.len(), "{backend:?}");
        assert!((sol.objective() + 40.0).abs() < 1e-9, "{backend:?}");

        let dual = solve_dual_with_options(&model, &ws, &opts).unwrap();
        assert_eq!(dual.stats().rank_repairs, 1, "{backend:?}");
        assert_eq!(dual.stats().rank_dependents, dups.len(), "{backend:?}");
        assert!((dual.objective() + 40.0).abs() < 1e-9, "{backend:?}");
    }
}

#[test]
fn too_many_dependents_fall_back_to_cold() {
    // m / 8 = 8 dependents are repairable; nine are past the limit.
    let dups: Vec<usize> = (0..9).map(|k| 2 * k).collect();
    let holes: Vec<usize> = (0..9).map(|k| 2 * k + 1).collect();
    let (model, ws) = duplicated_basis(64, &dups, &holes);
    let sol = model.solve_warm(Some(&ws)).unwrap();
    assert_eq!(sol.stats().warm, WarmOutcome::Cold);
    assert_eq!(sol.stats().rank_repairs, 0);
    assert!((sol.objective() + 64.0).abs() < 1e-9);
}

#[test]
fn large_warm_basis_with_duplicates_is_repaired() {
    // A dense rank sweep over this basis would need an m × m buffer of
    // 20 000² doubles (3.2 GB); the rank-revealing LU needs O(nnz + m).
    let m = 20_000;
    let dups = [7, 9_999, 19_998];
    let (model, ws) = duplicated_basis(m, &dups, &[0, 12_345, 19_999]);
    let sol = model.solve_warm(Some(&ws)).unwrap();
    assert_eq!(sol.stats().warm, WarmOutcome::WarmRepaired);
    assert_eq!(sol.stats().rank_repairs, 1);
    assert_eq!(sol.stats().rank_dependents, dups.len());
    assert!((sol.objective() + m as f64).abs() < 1e-6);
}
