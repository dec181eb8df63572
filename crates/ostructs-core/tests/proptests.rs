//! Property-based tests: the software O-structure cell against a
//! reference model of the §II-A semantics.

use std::collections::BTreeMap;

use proptest::prelude::*;

use ostructs_core::{OCell, OError};

/// Reference model: an ordered map of versions plus lock state.
#[derive(Default, Debug)]
struct Model {
    versions: BTreeMap<u64, (u32, Option<u64>)>, // version -> (value, locked_by)
    held: BTreeMap<u64, u64>,                    // tid -> version
}

impl Model {
    fn store(&mut self, v: u64, val: u32) -> Result<(), OError> {
        if self.versions.contains_key(&v) {
            return Err(OError::VersionExists(v));
        }
        self.versions.insert(v, (val, None));
        Ok(())
    }

    fn try_load(&self, v: u64) -> Option<u32> {
        self.versions
            .get(&v)
            .filter(|(_, l)| l.is_none())
            .map(|&(val, _)| val)
    }

    fn try_latest(&self, cap: u64) -> Option<(u64, u32)> {
        self.versions
            .range(..=cap)
            .next_back()
            .filter(|(_, (_, l))| l.is_none())
            .map(|(&v, &(val, _))| (v, val))
    }

    fn try_lock_latest(&mut self, cap: u64, tid: u64) -> Option<(u64, u32)> {
        if self.held.contains_key(&tid) {
            return None; // one lock per task per cell in this test
        }
        let (v, val) = self.try_latest(cap)?;
        self.versions.get_mut(&v).expect("exists").1 = Some(tid);
        self.held.insert(tid, v);
        Some((v, val))
    }

    fn unlock(&mut self, tid: u64, create: Option<u64>) -> Result<(), OError> {
        let Some(v) = self.held.remove(&tid) else {
            return Err(OError::NotLockOwner(tid));
        };
        let val = {
            let slot = self.versions.get_mut(&v).expect("held");
            slot.1 = None;
            slot.0
        };
        if let Some(vn) = create {
            if self.versions.contains_key(&vn) {
                return Err(OError::VersionExists(vn));
            }
            self.versions.insert(vn, (val, None));
        }
        Ok(())
    }

    fn prune_below(&mut self, boundary: u64) {
        let Some((&keep, _)) = self.versions.range(..=boundary).next_back() else {
            return;
        };
        self.versions.retain(|&v, (_, l)| v >= keep || l.is_some());
    }
}

#[derive(Debug, Clone)]
enum Step {
    Store {
        v: u64,
        val: u32,
    },
    TryLoad {
        v: u64,
    },
    TryLatest {
        cap: u64,
    },
    LockLatest {
        cap: u64,
        tid: u64,
    },
    Unlock {
        tid: u64,
        create: Option<u64>,
    },
    Prune {
        boundary: u64,
    },
    /// A fresh value `gap` versions above the newest one.
    Append {
        gap: u64,
        val: u32,
    },
    /// Lock the newest version as `tid` and rename it one version up.
    Rename {
        tid: u64,
    },
}

/// Every kind of step, on versions below `top`.
fn step_strategy(top: u64) -> impl Strategy<Value = Step> {
    prop_oneof![
        (1..top, any::<u32>()).prop_map(|(v, val)| Step::Store { v, val }),
        (1..top).prop_map(|v| Step::TryLoad { v }),
        (1..top).prop_map(|cap| Step::TryLatest { cap }),
        (1..top, 1u64..8).prop_map(|(cap, tid)| Step::LockLatest { cap, tid }),
        (1u64..8, proptest::option::of(1..top))
            .prop_map(|(tid, create)| Step::Unlock { tid, create }),
        (1..top).prop_map(|boundary| Step::Prune { boundary }),
        (1u64..3, any::<u32>()).prop_map(|(gap, val)| Step::Append { gap, val }),
        (1u64..8).prop_map(|tid| Step::Rename { tid }),
    ]
}

/// Versions a long history reaches (about 600, give or take).
const LONG: u64 = 700;

/// Grows a long history: two steps in three append a fresh value (a new
/// run each), the rest rename the newest version or read anywhere. Some
/// 450 steps cross the cell's read window and its chain trim depth.
fn growth_strategy() -> impl Strategy<Value = Step> {
    let append = || (1u64..3, any::<u32>()).prop_map(|(gap, val)| Step::Append { gap, val });
    prop_oneof![
        append(),
        append(),
        append(),
        append(),
        append(),
        append(),
        (1u64..8).prop_map(|tid| Step::Rename { tid }),
        (1..LONG).prop_map(|v| Step::TryLoad { v }),
        (1..LONG).prop_map(|cap| Step::TryLatest { cap }),
    ]
}

/// Runs `steps` on a fresh cell and on the model, comparing every
/// observation and checking the cell's invariants after each step.
fn run_against_model(steps: Vec<Step>) {
    let cell: OCell<u32> = OCell::new();
    let mut model = Model::default();
    for step in steps {
        match step {
            Step::Store { v, val } => {
                assert_eq!(cell.store_version(v, val), model.store(v, val));
            }
            Step::TryLoad { v } => {
                assert_eq!(cell.try_load_version(v), model.try_load(v));
            }
            Step::TryLatest { cap } => {
                assert_eq!(cell.try_load_latest(cap), model.try_latest(cap));
            }
            Step::LockLatest { cap, tid } => {
                // Skip when it would block (absent/locked) or the task
                // already holds a lock; the model mirrors the decision.
                let would = model.try_latest(cap).is_some() && !model.held.contains_key(&tid);
                let got = if would {
                    Some(cell.lock_load_latest(cap, tid).unwrap())
                } else {
                    None
                };
                assert_eq!(got, model.try_lock_latest(cap, tid));
            }
            Step::Unlock { tid, create } => {
                assert_eq!(cell.unlock_version(tid, create), model.unlock(tid, create));
            }
            Step::Prune { boundary } => {
                cell.prune_below(boundary);
                model.prune_below(boundary);
                let want: Vec<u64> = model.versions.keys().copied().collect();
                assert_eq!(cell.versions(), want);
            }
            Step::Append { gap, val } => {
                let v = model.versions.keys().next_back().map_or(0, |&v| v) + gap;
                assert_eq!(cell.store_version(v, val), model.store(v, val));
            }
            Step::Rename { tid } => {
                // Only when the newest version is free and `tid` holds
                // nothing, so the lock-load cannot block.
                let newest = model.versions.iter().next_back();
                let Some((&v, &(_, None))) = newest else {
                    continue;
                };
                if model.held.contains_key(&tid) {
                    continue;
                }
                assert_eq!(
                    Some(cell.lock_load_latest(v, tid).unwrap()),
                    model.try_lock_latest(v, tid)
                );
                let create = Some(v + 1);
                assert_eq!(cell.unlock_version(tid, create), model.unlock(tid, create));
            }
        }
        cell.check_invariants().unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every non-blocking observation of the cell matches the model, for
    /// arbitrary interleavings of the six operations.
    #[test]
    fn cell_matches_model(steps in proptest::collection::vec(step_strategy(40), 1..120)) {
        run_against_model(steps);
    }
    /// GC transparency: pruning below any boundary never changes what a
    /// task with cap ≥ boundary observes.
    #[test]
    fn prune_is_invisible_above_the_boundary(
        versions in proptest::collection::btree_set(1u64..60, 1..25),
        boundary in 1u64..60,
        caps in proptest::collection::vec(1u64..60, 1..10),
    ) {
        let cell: OCell<u32> = OCell::new();
        for &v in &versions {
            cell.store_version(v, v as u32 * 3).unwrap();
        }
        let before: Vec<Option<(u64, u32)>> =
            caps.iter().map(|&c| cell.try_load_latest(c)).collect();
        cell.prune_below(boundary);
        for (i, &cap) in caps.iter().enumerate() {
            if cap >= boundary {
                prop_assert_eq!(cell.try_load_latest(cap), before[i],
                    "cap {} >= boundary {}", cap, boundary);
            }
        }
    }

    /// Renaming (unlock-with-create) always preserves the locked value and
    /// leaves both versions unlocked.
    #[test]
    fn rename_preserves_value(
        base in 1u64..20,
        offset in 1u64..20,
        val in any::<u32>(),
    ) {
        let cell = OCell::with_initial(base, val);
        cell.lock_load_version(base, 1).unwrap();
        let vn = base + offset;
        cell.unlock_version(1, Some(vn)).unwrap();
        prop_assert_eq!(cell.try_load_version(base), Some(val));
        prop_assert_eq!(cell.try_load_version(vn), Some(val));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The same over long histories: hundreds of runs, so reads reach
    /// past the fast-path window and the run chain is trimmed, then every
    /// kind of step (pruning and out-of-order stores rebuild the chain).
    #[test]
    fn long_history_matches_model(
        growth in proptest::collection::vec(growth_strategy(), 450..650),
        mixed in proptest::collection::vec(step_strategy(LONG), 100..250),
    ) {
        run_against_model(growth.into_iter().chain(mixed).collect());
    }
}
