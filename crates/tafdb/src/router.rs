//! Range partitioning of the `inode_table` across shards.
//!
//! Paper §4.1: "we break inode_table into a set of shards ... by a range
//! partitioning scheme on the kID values". Every record of one directory (its
//! `/_ATTR` record and all children id records share the directory's id as
//! `kID`) lands on exactly one shard.
//!
//! The map is **versioned**: each published assignment carries an epoch, and
//! shard boundaries are arbitrary (not just equal slices) so the placement
//! driver can split a shard online. [`PartitionMap`] is the client-side cache
//! of the latest known [`MapVersion`]; a `WrongShard` redirect tells the
//! client its epoch is stale and it refreshes through a [`MapSource`] before
//! retrying (client-side metadata resolving, paper §3.1 — no proxy hop).
//!
//! Balance comes from the id allocator (see [`crate::tserver`]): new
//! directory ids are handed out round-robin across ranges, so directories
//! spread evenly while each directory's records stay together.

use std::collections::HashMap;
use std::sync::Arc;

use cfs_raft::Route;
use cfs_types::{wire, FsError, FsResult, InodeId, NodeId, ShardId, VOLUME_SHIFT};
use parking_lot::RwLock;

/// Static description of one shard.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ShardInfo {
    /// Shard id (stable across splits; not necessarily its index).
    pub id: ShardId,
    /// Raft replica addresses, in group order.
    pub replicas: Vec<NodeId>,
}

wire!(struct ShardInfo { id, replicas });

/// One shard's slot in a [`MapVersion`]: the shard and the **inclusive** id
/// range `[start, end]` it owns.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ShardRange {
    /// The owning shard.
    pub info: ShardInfo,
    /// First owned id.
    pub start: u64,
    /// Last owned id (inclusive, so the tiling can cover `u64::MAX`).
    pub end: u64,
}

wire!(struct ShardRange { info, start, end });

/// An epoch-stamped, wire-encodable shard→range assignment. The unit the
/// placement driver publishes and clients cache.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct MapVersion {
    /// Monotonic version number; bumped at every cutover.
    pub epoch: u64,
    /// Ranges sorted by `start`, tiling `[0, u64::MAX]` with no gap/overlap.
    pub shards: Vec<ShardRange>,
}

wire!(struct MapVersion { epoch, shards });

impl MapVersion {
    /// Builds the epoch-1 assignment of `shards` equal ranges (the legacy
    /// boot-time layout slicing the full 64-bit id space).
    pub fn equal_ranges(shards: Vec<ShardInfo>) -> MapVersion {
        assert!(!shards.is_empty());
        let n = shards.len() as u64;
        let range_size = u64::MAX / n;
        let last = shards.len() - 1;
        let shards = shards
            .into_iter()
            .enumerate()
            .map(|(i, info)| ShardRange {
                info,
                start: i as u64 * range_size,
                end: if i == last {
                    u64::MAX
                } else {
                    (i as u64 + 1) * range_size - 1
                },
            })
            .collect();
        MapVersion { epoch: 1, shards }
    }

    /// Builds the epoch-1 volume-aware boot layout: the *default volume's*
    /// key band `[0, 2^48)` is sliced equally across the boot shards, and the
    /// last shard's range extends through `u64::MAX` so the tiling invariant
    /// holds. Ids carry their volume in the top 16 bits ([`VOLUME_SHIFT`]),
    /// so under this layout boot traffic (all volume 0) still spreads over
    /// every shard, while each newly created volume's band starts out on the
    /// last shard and earns its own shards through ordinary splits.
    pub fn volume_boot_ranges(shards: Vec<ShardInfo>) -> MapVersion {
        assert!(!shards.is_empty());
        let n = shards.len() as u64;
        let band = 1u64 << VOLUME_SHIFT;
        let slice = band / n;
        let last = shards.len() - 1;
        let shards = shards
            .into_iter()
            .enumerate()
            .map(|(i, info)| ShardRange {
                info,
                start: i as u64 * slice,
                end: if i == last {
                    u64::MAX
                } else {
                    (i as u64 + 1) * slice - 1
                },
            })
            .collect();
        MapVersion { epoch: 1, shards }
    }

    /// Checks that the ranges tile the full id space: sorted, gap-free,
    /// overlap-free, starting at 0 and ending at `u64::MAX`, with unique
    /// shard ids.
    pub fn validate(&self) -> FsResult<()> {
        if self.shards.is_empty() {
            return Err(FsError::Invalid("empty partition map".into()));
        }
        if self.shards[0].start != 0 {
            return Err(FsError::Invalid("first range must start at 0".into()));
        }
        if self.shards.last().expect("non-empty").end != u64::MAX {
            return Err(FsError::Invalid("last range must end at u64::MAX".into()));
        }
        let mut ids = std::collections::HashSet::new();
        for w in self.shards.windows(2) {
            if w[0].end == u64::MAX || w[0].end + 1 != w[1].start {
                return Err(FsError::Invalid(format!(
                    "ranges must tile: [..,{}] then [{},..]",
                    w[0].end, w[1].start
                )));
            }
        }
        for r in &self.shards {
            if r.start > r.end {
                return Err(FsError::Invalid(format!(
                    "inverted range [{},{}]",
                    r.start, r.end
                )));
            }
            if !ids.insert(r.info.id) {
                return Err(FsError::Invalid(format!(
                    "duplicate shard id {:?}",
                    r.info.id
                )));
            }
        }
        Ok(())
    }

    /// Derives the next-epoch assignment in which `src` keeps `[lo, at-1]`
    /// and `new_shard` takes over `[at, hi]` of `src`'s current `[lo, hi]`.
    pub fn split(&self, src: ShardId, at: u64, new_shard: ShardInfo) -> FsResult<MapVersion> {
        let idx = self
            .shards
            .iter()
            .position(|r| r.info.id == src)
            .ok_or_else(|| FsError::Invalid(format!("unknown shard {src:?}")))?;
        let (lo, hi) = (self.shards[idx].start, self.shards[idx].end);
        if at <= lo || at > hi {
            return Err(FsError::Invalid(format!(
                "split point {at} outside ({lo},{hi}]"
            )));
        }
        let mut shards = self.shards.clone();
        shards[idx].end = at - 1;
        shards.insert(
            idx + 1,
            ShardRange {
                info: new_shard,
                start: at,
                end: hi,
            },
        );
        let next = MapVersion {
            epoch: self.epoch + 1,
            shards,
        };
        next.validate()?;
        Ok(next)
    }

    fn slot_for(&self, kid: u64) -> &ShardRange {
        // Last range whose start <= kid; the tiling guarantees kid <= end.
        let idx = self.shards.partition_point(|r| r.start <= kid) - 1;
        &self.shards[idx]
    }
}

/// The cluster's partition map: a cached [`MapVersion`] plus one [`Route`]
/// per shard, behind interior mutability so [`PartitionMap::install`]
/// switches every holder of the shared `Arc` to the new epoch at once.
pub struct PartitionMap {
    inner: RwLock<Inner>,
}

struct Inner {
    version: MapVersion,
    /// How to reach each shard's group; a shard's route (and the leader it
    /// learned) carries across installs.
    routes: HashMap<ShardId, Arc<Route>>,
}

impl Inner {
    /// Routes for `version`'s shards, reusing `old` ones whose replicas are
    /// unchanged.
    fn routes_for(
        version: &MapVersion,
        old: &HashMap<ShardId, Arc<Route>>,
    ) -> HashMap<ShardId, Arc<Route>> {
        version
            .shards
            .iter()
            .map(|r| {
                let route = old
                    .get(&r.info.id)
                    .filter(|route| route.replicas() == r.info.replicas.as_slice())
                    .cloned()
                    .unwrap_or_else(|| Arc::new(Route::new(r.info.replicas.clone())));
                (r.info.id, route)
            })
            .collect()
    }

    fn slot(&self, shard: ShardId) -> &ShardRange {
        self.version
            .shards
            .iter()
            .find(|r| r.info.id == shard)
            .unwrap_or_else(|| panic!("unknown shard {shard:?}"))
    }
}

impl PartitionMap {
    /// Builds an epoch-1 map over `shards` using the volume-aware boot
    /// layout ([`MapVersion::volume_boot_ranges`]): the default volume's
    /// band is sliced equally; other volumes start on the last shard.
    pub fn new(shards: Vec<ShardInfo>) -> PartitionMap {
        PartitionMap::from_version(MapVersion::volume_boot_ranges(shards))
    }

    /// Builds a map caching `version`.
    pub fn from_version(version: MapVersion) -> PartitionMap {
        version.validate().expect("valid map version");
        let routes = Inner::routes_for(&version, &HashMap::new());
        PartitionMap {
            inner: RwLock::new(Inner { version, routes }),
        }
    }

    /// The epoch of the cached version.
    pub fn epoch(&self) -> u64 {
        self.inner.read().version.epoch
    }

    /// A copy of the cached version (what a client gossips or compares).
    pub fn current_version(&self) -> MapVersion {
        self.inner.read().version.clone()
    }

    /// Installs `version` if it is newer than the cached one; returns whether
    /// it was installed. Routes of surviving shards are preserved.
    pub fn install(&self, version: MapVersion) -> bool {
        if version.validate().is_err() {
            return false;
        }
        let mut inner = self.inner.write();
        if version.epoch <= inner.version.epoch {
            return false;
        }
        inner.routes = Inner::routes_for(&version, &inner.routes);
        inner.version = version;
        true
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.inner.read().version.shards.len()
    }

    /// The shard owning all records with the given `kID`.
    pub fn shard_for(&self, kid: InodeId) -> ShardId {
        self.inner.read().version.slot_for(kid.raw()).info.id
    }

    /// The id range `[start, end]` (both inclusive) owned by `shard`: the
    /// tiling covers the full id space, so the top key `u64::MAX` is owned by
    /// the last range.
    pub fn range_of(&self, shard: ShardId) -> (u64, u64) {
        let inner = self.inner.read();
        let slot = inner.slot(shard);
        (slot.start, slot.end)
    }

    /// How to reach `shard`'s group.
    pub fn route(&self, shard: ShardId) -> Arc<Route> {
        Arc::clone(&self.inner.read().routes[&shard])
    }

    /// All shards, in range order.
    pub fn shards(&self) -> Vec<ShardInfo> {
        self.inner
            .read()
            .version
            .shards
            .iter()
            .map(|r| r.info.clone())
            .collect()
    }
}

/// Where a client fetches a fresh [`MapVersion`] after a `WrongShard`
/// redirect (implemented by the placement driver's client).
pub trait MapSource: Send + Sync {
    /// Returns a version with epoch strictly greater than `have_epoch`, or
    /// `None` when the source has nothing newer.
    fn fetch_newer(&self, have_epoch: u64) -> FsResult<Option<MapVersion>>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn map(n: u32) -> PartitionMap {
        PartitionMap::new(infos(n))
    }

    fn infos(n: u32) -> Vec<ShardInfo> {
        (0..n)
            .map(|i| ShardInfo {
                id: ShardId(i),
                replicas: vec![NodeId(i * 10), NodeId(i * 10 + 1), NodeId(i * 10 + 2)],
            })
            .collect()
    }

    #[test]
    fn root_lives_on_shard_zero() {
        let m = map(4);
        assert_eq!(m.shard_for(cfs_types::ROOT_INODE), ShardId(0));
    }

    #[test]
    fn ranges_partition_the_space() {
        let m = map(4);
        for s in 0..4u32 {
            let (start, end) = m.range_of(ShardId(s));
            assert!(start <= end);
            assert_eq!(m.shard_for(InodeId(start)), ShardId(s));
            assert_eq!(m.shard_for(InodeId(end)), ShardId(s));
        }
        // Ranges tile without gaps (inclusive ends: next start follows
        // immediately).
        for s in 0..3u32 {
            assert_eq!(m.range_of(ShardId(s)).1 + 1, m.range_of(ShardId(s + 1)).0);
        }
        // The full id space is covered: the top key is owned by the last
        // shard AND its stated range reaches it (the old exclusive-end
        // representation left u64::MAX outside every stated range).
        assert_eq!(m.shard_for(InodeId(u64::MAX)), ShardId(3));
        assert_eq!(m.range_of(ShardId(3)).1, u64::MAX);
        assert_eq!(m.range_of(ShardId(0)).0, 0);
    }

    #[test]
    fn boot_layout_slices_the_default_volume_band() {
        use cfs_types::VolumeId;
        let m = map(4);
        m.current_version().validate().expect("tiling holds");
        // Every boot-shard boundary below the last shard's end falls inside
        // volume 0's band, so default-volume traffic spreads over all shards.
        let band_end = VolumeId::DEFAULT.band_end().raw();
        for s in 0..3u32 {
            let (start, end) = m.range_of(ShardId(s));
            assert!(start <= band_end && end < band_end, "shard {s} in band");
        }
        // A non-default volume's whole band routes to the last boot shard
        // until an explicit split gives it shards of its own.
        let v = VolumeId(7);
        assert_eq!(m.shard_for(v.band_start()), ShardId(3));
        assert_eq!(m.shard_for(v.root_inode()), ShardId(3));
        assert_eq!(m.shard_for(v.band_end()), ShardId(3));
        // The legacy full-space layout remains available for deployments
        // that predate volumes.
        let legacy = MapVersion::equal_ranges(infos(4));
        legacy.validate().expect("legacy tiling holds");
        assert_eq!(legacy.shards[0].end, u64::MAX / 4 - 1);
    }

    #[test]
    fn split_produces_next_epoch_with_both_halves() {
        let m = map(2);
        let v1 = m.current_version();
        assert_eq!(v1.epoch, 1);
        let (lo, hi) = m.range_of(ShardId(1));
        let mid = lo + (hi - lo) / 2;
        let v2 = v1
            .split(
                ShardId(1),
                mid,
                ShardInfo {
                    id: ShardId(2),
                    replicas: vec![NodeId(20), NodeId(21), NodeId(22)],
                },
            )
            .unwrap();
        assert_eq!(v2.epoch, 2);
        assert!(m.install(v2.clone()));
        assert_eq!(m.num_shards(), 3);
        assert_eq!(m.range_of(ShardId(1)), (lo, mid - 1));
        assert_eq!(m.range_of(ShardId(2)), (mid, hi));
        assert_eq!(m.shard_for(InodeId(mid - 1)), ShardId(1));
        assert_eq!(m.shard_for(InodeId(mid)), ShardId(2));
        assert_eq!(m.shard_for(InodeId(u64::MAX)), ShardId(2));
        // Re-installing the same or an older epoch is a no-op.
        assert!(!m.install(v2));
        assert!(!m.install(v1));
        assert_eq!(m.epoch(), 2);
    }

    #[test]
    fn split_rejects_out_of_range_points() {
        let v = MapVersion::equal_ranges(infos(2));
        let (lo, hi) = (v.shards[1].start, v.shards[1].end);
        let new = ShardInfo {
            id: ShardId(9),
            replicas: vec![NodeId(90)],
        };
        assert!(v.split(ShardId(1), lo, new.clone()).is_err());
        assert!(v.split(ShardId(1), hi, new.clone()).is_ok());
        assert!(v.split(ShardId(7), lo + 1, new).is_err());
    }

    #[test]
    fn install_preserves_routes_of_surviving_shards() {
        let m = map(2);
        let before = m.route(ShardId(1));
        let v2 = m
            .current_version()
            .split(
                ShardId(0),
                1 << 40,
                ShardInfo {
                    id: ShardId(2),
                    replicas: vec![NodeId(20)],
                },
            )
            .unwrap();
        assert!(m.install(v2));
        assert!(Arc::ptr_eq(&before, &m.route(ShardId(1))));
        assert_eq!(m.route(ShardId(2)).replicas(), [NodeId(20)]);
    }

    #[test]
    fn map_version_round_trips_on_the_wire() {
        use cfs_types::codec::{Decode, Encode};
        let mut v = MapVersion::equal_ranges(infos(3));
        v.epoch = 7;
        assert_eq!(MapVersion::from_bytes(&v.to_bytes()).unwrap(), v);
    }

    /// Applies `cuts` as successive splits over a single-shard map, producing
    /// an arbitrary-boundary tiling.
    fn version_from_cuts(cuts: &[u64]) -> MapVersion {
        let mut v = MapVersion::equal_ranges(infos(1));
        let mut next_id = 1u32;
        for &cut in cuts {
            let src = v.slot_for(cut).info.id;
            let new = ShardInfo {
                id: ShardId(next_id),
                replicas: vec![NodeId(next_id * 10)],
            };
            if let Ok(split) = v.split(src, cut, new) {
                v = split;
                next_id += 1;
            }
        }
        v
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Random split boundaries still tile the id space with no gaps or
        /// overlaps.
        #[test]
        fn prop_random_splits_tile_id_space(
            cuts in proptest::collection::vec(1u64..=u64::MAX, 0..12)
        ) {
            let v = version_from_cuts(&cuts);
            v.validate().unwrap();
            prop_assert_eq!(v.shards[0].start, 0);
            prop_assert_eq!(v.shards.last().unwrap().end, u64::MAX);
            for w in v.shards.windows(2) {
                prop_assert!(w[0].end < w[1].start, "no overlap");
                prop_assert_eq!(w[0].end + 1, w[1].start, "no gap");
            }
        }

        /// `shard_for` agrees with `range_of` for every boundary and its
        /// ±1 neighbours.
        #[test]
        fn prop_shard_for_agrees_with_range_of_at_boundaries(
            cuts in proptest::collection::vec(1u64..=u64::MAX, 1..10)
        ) {
            let m = PartitionMap::from_version(version_from_cuts(&cuts));
            for info in m.shards() {
                let (start, end) = m.range_of(info.id);
                // Every boundary key and its neighbours route to the shard
                // whose stated range contains them.
                for probe in [
                    Some(start),
                    start.checked_sub(1),
                    start.checked_add(1),
                    Some(end),
                    end.checked_sub(1),
                    end.checked_add(1),
                ].into_iter().flatten() {
                    let owner = m.shard_for(InodeId(probe));
                    let (olo, ohi) = m.range_of(owner);
                    prop_assert!(
                        olo <= probe && probe <= ohi,
                        "probe {} routed to {:?} with range [{},{}]",
                        probe, owner, olo, ohi
                    );
                    // And containment implies agreement.
                    if start <= probe && probe <= end {
                        prop_assert_eq!(owner, info.id);
                    }
                }
            }
        }
    }
}
