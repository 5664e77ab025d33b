//! Oracle for `LazyTable`: random walks of writes, reads, clears and
//! prefix walks against a zero-initialised `Vec` of the same length.
//!
//! Each step draws its index from one of three regions, so every walk
//! covers all of them: below the filled prefix's end (entries written or
//! zero-filled), between that end and the logical length (entries never
//! reached, which must read as zero), and past the logical length (where
//! `get` and `get_mut` answer `None`, like a slice's). After every step
//! the table must equal the model entry by entry, its filled prefix must
//! be a prefix of the model with only zeros after it, and a clone must
//! hold the same length and prefix.
//!
//! Case count defaults to 256 and can be raised via `FA_ORACLE_CASES`.

use fa_sim::table::LazyTable;
use proptest::prelude::*;

fn oracle_cases() -> u32 {
    std::env::var("FA_ORACLE_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|v| *v > 0)
        .unwrap_or(256)
}

/// The index a step uses: `region` 0 lies below the filled prefix's end
/// (falling through to region 1 while nothing is filled), 1 between that
/// end and the length, 2 past the length.
fn index_in(region: u8, pick: usize, mark: usize, len: usize) -> usize {
    match region {
        0 if mark > 0 => pick % mark,
        0 | 1 if mark < len => mark + pick % (len - mark),
        _ => len + pick % 3,
    }
}

fn check(table: &LazyTable<u32>, model: &[u32]) -> Result<(), String> {
    prop_assert_eq!(table.len(), model.len());
    let filled = table.filled();
    prop_assert!(filled.len() <= model.len());
    prop_assert_eq!(filled, &model[..filled.len()]);
    prop_assert!(model[filled.len()..].iter().all(|&e| e == 0));
    for (i, &e) in model.iter().enumerate() {
        prop_assert_eq!(table.get(i), Some(e));
        prop_assert_eq!(table[i], e);
    }
    prop_assert_eq!(table.get(model.len()), None);
    let clone = table.clone();
    prop_assert_eq!(clone.len(), table.len());
    prop_assert_eq!(clone.filled(), filled);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(oracle_cases()))]

    #[test]
    fn lazy_table_matches_a_zeroed_vec(
        shape in (0usize..48, prop::bool::ANY),
        steps in proptest::collection::vec((0u8..6, 0u8..3, 0usize..1000, 0u32..4), 1..80),
    ) {
        let (len, deferred) = shape;
        let mut table = if deferred {
            LazyTable::<u32>::deferred(len)
        } else {
            LazyTable::<u32>::new(len)
        };
        let mut model = vec![0u32; len];
        for (op, region, pick, value) in steps {
            let i = index_in(region, pick, table.filled().len(), len);
            match op {
                // Write through `IndexMut` (a value of 0 writes an explicit
                // zero, which must still read back as one).
                0 | 1 if i < len => {
                    table[i] = value;
                    model[i] = value;
                }
                // Add through `get_mut`, `None` past the length.
                2 | 3 => match table.get_mut(i) {
                    Some(e) => {
                        *e += value;
                        model[i] += value;
                    }
                    None => prop_assert!(i >= len),
                },
                4 => prop_assert_eq!(table.get(i), model.get(i).copied()),
                5 if value == 0 => {
                    table.clear();
                    model.iter_mut().for_each(|e| *e = 0);
                    prop_assert!(table.filled().is_empty());
                }
                // The non-zero entries, walked over the filled prefix only.
                _ => {
                    let walked: Vec<(usize, u32)> = table
                        .filled()
                        .iter()
                        .copied()
                        .enumerate()
                        .filter(|&(_, e)| e != 0)
                        .collect();
                    let expect: Vec<(usize, u32)> = model
                        .iter()
                        .copied()
                        .enumerate()
                        .filter(|&(_, e)| e != 0)
                        .collect();
                    prop_assert_eq!(walked, expect);
                }
            }
            check(&table, &model)?;
        }
    }
}
