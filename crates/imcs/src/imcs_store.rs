//! The In-Memory Column Store of one database instance: IMCU handles,
//! per-object coverage maps, and the invalidation entry points the
//! DBIM-on-ADG flush component writes through.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use imadg_common::{Dba, ObjectId, Scn, TenantId};
use imadg_storage::RowLoc;
use parking_lot::RwLock;

use crate::coldstore::ColdUnit;
use crate::expression::ImExpression;
use crate::imcu::Imcu;
use crate::smu::Smu;

/// A slot holding one IMCU and its SMU, plus (when evicted) the unit's
/// cold-tier state.
///
/// The pair is swapped atomically by repopulation: scans clone both Arcs
/// under a read lock and work on a consistent pair; invalidation flushes
/// write into whichever SMU is current; the swap itself carries over SMU
/// entries newer than the rebuild snapshot (see [`Smu::carry_over`]).
///
/// Eviction replaces the hot unit with a *pending placeholder* (same
/// snapshot, SMU untouched) and attaches a [`ColdUnit`]. The cold scan
/// path activates only when `cold.is_some() && imcu.is_pending()`; every
/// race or cold-read failure therefore degrades to the existing pending
/// bypass — a correct row-store scan — never a wrong answer.
#[derive(Debug)]
pub struct ImcuHandle {
    pair: RwLock<(Arc<Imcu>, Arc<Smu>)>,
    /// Cold-tier state; `Some` from eviction until recall. Lock order:
    /// never acquire `pair` while holding `cold` — writers take `pair`
    /// first, readers take each lock on its own.
    cold: RwLock<Option<Arc<ColdUnit>>>,
    /// Scan touches since the tier engine's last pass (recency input for
    /// the eviction policy; drained by [`ImcuHandle::take_scans`]).
    scans: AtomicU64,
}

impl ImcuHandle {
    /// Wrap a freshly built or pending unit with an empty SMU.
    pub fn new(imcu: Imcu) -> ImcuHandle {
        ImcuHandle {
            pair: RwLock::new((Arc::new(imcu), Arc::new(Smu::new()))),
            cold: RwLock::new(None),
            scans: AtomicU64::new(0),
        }
    }

    /// Current `(imcu, smu)` pair.
    pub fn pair(&self) -> (Arc<Imcu>, Arc<Smu>) {
        let g = self.pair.read();
        (g.0.clone(), g.1.clone())
    }

    /// The current unit (metadata access).
    pub fn imcu(&self) -> Arc<Imcu> {
        self.pair.read().0.clone()
    }

    /// The current SMU (flush target).
    pub fn smu(&self) -> Arc<Smu> {
        self.pair.read().1.clone()
    }

    /// Install a rebuilt unit, carrying over SMU entries newer than its
    /// snapshot. Runs under the pair's write lock so no concurrent flush
    /// can fall between the carry-over and the install.
    pub fn swap(&self, rebuilt: Imcu) {
        let mut g = self.pair.write();
        let fresh = g.1.carry_over(rebuilt.snapshot);
        *g = (Arc::new(rebuilt), Arc::new(fresh));
    }

    /// Route an invalidation to this handle's SMU. Updated unit rows and
    /// post-snapshot inserts into covered blocks are both stale locations,
    /// on hot and cold handles alike.
    pub fn invalidate(&self, loc: RowLoc, commit_scn: Scn) {
        let g = self.pair.read();
        // A unit frozen at snapshot `S` already absorbed every change
        // committed at or before `S` (the `Smu::carry_over` rule), so
        // mining replayed from below the snapshot — the restart path that
        // re-mines for restored cold units — is dropped, not recorded.
        if commit_scn > g.0.snapshot {
            g.1.invalidate_row(loc, commit_scn);
        }
    }

    /// The cold-tier state, if the unit has been evicted.
    pub fn cold(&self) -> Option<Arc<ColdUnit>> {
        self.cold.read().clone()
    }

    /// Is this unit currently served from the cold tier? True only while
    /// the hot slot holds the pending placeholder *and* a cold file is
    /// attached — the activation rule that keeps every race benign.
    pub fn is_cold(&self) -> bool {
        let pending = self.pair.read().0.is_pending();
        pending && self.cold.read().is_some()
    }

    /// Note one scan touch (recency input for the eviction policy).
    pub fn note_scan(&self) {
        self.scans.fetch_add(1, Ordering::Relaxed);
    }

    /// Drain the scan-activity counter (one tier pass = one decay epoch).
    pub fn take_scans(&self) -> u64 {
        self.scans.swap(0, Ordering::Relaxed)
    }

    /// Evict: swap the hot unit for a pending placeholder at the same
    /// snapshot (SMU untouched — its journal still describes drift against
    /// the serialized data) and attach the cold state. Returns `false`
    /// without touching the handle when the slot no longer holds the unit
    /// the cold file was serialized from (a repopulation swap raced the
    /// eviction) — the caller discards the file.
    pub fn evict_to_cold(&self, cold: Arc<ColdUnit>) -> bool {
        let mut g = self.pair.write();
        if g.0.is_pending() || g.0.snapshot != cold.meta.snapshot {
            return false;
        }
        let placeholder = Imcu::pending(
            g.0.object,
            g.0.tenant,
            g.0.dbas.clone(),
            g.0.snapshot,
            g.0.schema_version,
        );
        *self.cold.write() = Some(cold);
        g.0 = Arc::new(placeholder);
        true
    }

    /// Restart-time restore: attach cold state to a handle that was just
    /// created from the file's own footer (pending placeholder at the
    /// file's snapshot). Unlike [`ImcuHandle::evict_to_cold`] the file is
    /// the authority here, so no slot validation applies.
    pub fn restore_cold(&self, cold: Arc<ColdUnit>) {
        let _g = self.pair.write();
        *self.cold.write() = Some(cold);
    }

    /// Detach an orphaned cold state (a repopulation swap raced an
    /// eviction and installed fresh hot data over the placeholder; the
    /// cold file is obsolete). Returns the detached state so the caller
    /// can delete the file. No-op on genuinely cold handles.
    pub fn clear_cold_if_hot(&self) -> Option<Arc<ColdUnit>> {
        let g = self.pair.write();
        if g.0.is_pending() {
            return None;
        }
        self.cold.write().take()
    }

    /// Detach the cold state unconditionally (a corrupt cold file found
    /// by the tier engine). The handle is left as a plain pending unit,
    /// which the population engine rebuilds from the row store.
    pub fn drop_cold(&self) -> Option<Arc<ColdUnit>> {
        let _g = self.pair.write();
        self.cold.write().take()
    }

    /// Recall: install the decoded hot unit (same snapshot, SMU untouched)
    /// and detach the cold state.
    pub fn install_hot(&self, imcu: Imcu) {
        let mut g = self.pair.write();
        g.0 = Arc::new(imcu);
        *self.cold.write() = None;
    }

    /// Re-compaction swap: the journal has been merged into a fresh cold
    /// file at `rebuilt_snapshot`. Install a placeholder at that snapshot,
    /// carry over SMU entries newer than it, and attach the new cold
    /// state — the cold-tier analogue of [`ImcuHandle::swap`].
    pub fn swap_to_cold(&self, rebuilt_snapshot: Scn, cold: Arc<ColdUnit>) {
        let mut g = self.pair.write();
        let fresh = g.1.carry_over(rebuilt_snapshot);
        let placeholder = Imcu::pending(
            g.0.object,
            g.0.tenant,
            g.0.dbas.clone(),
            rebuilt_snapshot,
            g.0.schema_version,
        );
        *self.cold.write() = Some(cold);
        *g = (Arc::new(placeholder), Arc::new(fresh));
    }
}

/// All IMCUs of one object on this instance.
#[derive(Debug)]
pub struct ObjectImcs {
    /// Owning object.
    pub object: ObjectId,
    /// Owning tenant (coarse invalidation is per tenant, §III.E).
    pub tenant: TenantId,
    handles: RwLock<Vec<Arc<ImcuHandle>>>,
    by_dba: RwLock<HashMap<Dba, Arc<ImcuHandle>>>,
}

impl ObjectImcs {
    fn new(object: ObjectId, tenant: TenantId) -> ObjectImcs {
        ObjectImcs {
            object,
            tenant,
            handles: RwLock::new(Vec::new()),
            by_dba: RwLock::new(HashMap::new()),
        }
    }

    /// Register a handle (pending or built) and claim its DBA range.
    pub fn register(&self, handle: Arc<ImcuHandle>) {
        let dbas = handle.imcu().dbas.clone();
        let mut by_dba = self.by_dba.write();
        let mut handles = self.handles.write();
        for dba in dbas {
            by_dba.insert(dba, handle.clone());
        }
        handles.push(handle);
    }

    /// Snapshot of the object's handles.
    pub fn handles(&self) -> Vec<Arc<ImcuHandle>> {
        self.handles.read().clone()
    }

    /// Handle covering `dba`, if any.
    pub fn covering(&self, dba: Dba) -> Option<Arc<ImcuHandle>> {
        self.by_dba.read().get(&dba).cloned()
    }

    /// Is `dba` covered by any unit?
    pub fn covers(&self, dba: Dba) -> bool {
        self.by_dba.read().contains_key(&dba)
    }

    /// Number of units.
    pub fn unit_count(&self) -> usize {
        self.handles.read().len()
    }

    /// Total populated rows across non-pending units.
    pub fn populated_rows(&self) -> usize {
        self.handles.read().iter().map(|h| h.imcu().rows()).sum()
    }

    /// Approximate DRAM held by this object's hot units (cold units sit
    /// behind pending placeholders and cost ~nothing).
    pub fn hot_bytes(&self) -> usize {
        self.handles.read().iter().map(|h| h.imcu().approx_bytes()).sum()
    }
}

/// The instance-level column store.
#[derive(Debug, Default)]
pub struct ImcsStore {
    objects: RwLock<HashMap<ObjectId, Arc<ObjectImcs>>>,
    /// In-memory expressions per object (paper §V). Survive unit drops —
    /// like dictionary metadata — so repopulation re-materializes them.
    expressions: RwLock<HashMap<ObjectId, Vec<ImExpression>>>,
}

impl ImcsStore {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// The object's column-store entry, if populated (or populating).
    pub fn object(&self, object: ObjectId) -> Option<Arc<ObjectImcs>> {
        self.objects.read().get(&object).cloned()
    }

    /// Get or create the object entry.
    pub fn ensure_object(&self, object: ObjectId, tenant: TenantId) -> Arc<ObjectImcs> {
        if let Some(o) = self.object(object) {
            return o;
        }
        self.objects
            .write()
            .entry(object)
            .or_insert_with(|| Arc::new(ObjectImcs::new(object, tenant)))
            .clone()
    }

    /// Drop every unit of `object` (NO INMEMORY, definition-changing DDL,
    /// or placement change).
    pub fn drop_object(&self, object: ObjectId) {
        self.objects.write().remove(&object);
    }

    /// All object entries.
    pub fn all_objects(&self) -> Vec<Arc<ObjectImcs>> {
        self.objects.read().values().cloned().collect()
    }

    /// Route one invalidation; returns true when a covering unit existed.
    pub fn invalidate(&self, object: ObjectId, loc: RowLoc, commit_scn: Scn) -> bool {
        let Some(obj) = self.object(object) else { return false };
        let Some(handle) = obj.covering(loc.dba) else { return false };
        handle.invalidate(loc, commit_scn);
        true
    }

    /// Coarse invalidation: mark every unit of every object of `tenant`
    /// fully invalid (paper §III.E). Returns units marked.
    pub fn mark_tenant_invalid(&self, tenant: TenantId) -> usize {
        let mut n = 0;
        for obj in self.all_objects() {
            if obj.tenant == tenant {
                for h in obj.handles() {
                    h.smu().mark_all_invalid();
                    n += 1;
                }
            }
        }
        n
    }

    /// Total populated (non-pending) rows on this instance.
    pub fn populated_rows(&self) -> usize {
        self.all_objects().iter().map(|o| o.populated_rows()).sum()
    }

    /// Approximate DRAM held by hot units on this instance (the number the
    /// eviction policy holds under `memory_budget_bytes`).
    pub fn hot_bytes(&self) -> usize {
        self.all_objects().iter().map(|o| o.hot_bytes()).sum()
    }

    /// Register an in-memory expression for `object` (replaces an existing
    /// expression of the same name). Existing units are dropped so the
    /// next population pass materializes the new virtual column.
    pub fn register_expression(&self, object: ObjectId, expr: ImExpression) {
        let mut map = self.expressions.write();
        let list = map.entry(object).or_default();
        list.retain(|e| e.name != expr.name);
        list.push(expr);
        drop(map);
        self.drop_object(object);
    }

    /// Remove a named expression; drops the object's units for rebuild.
    pub fn unregister_expression(&self, object: ObjectId, name: &str) {
        if let Some(list) = self.expressions.write().get_mut(&object) {
            list.retain(|e| e.name != name);
        }
        self.drop_object(object);
    }

    /// The expressions registered for `object`.
    pub fn expressions(&self, object: ObjectId) -> Vec<ImExpression> {
        self.expressions.read().get(&object).cloned().unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imadg_common::Scn;

    fn pending_unit(obj: u32, dbas: &[u64], snapshot: u64) -> Imcu {
        Imcu::pending(
            ObjectId(obj),
            TenantId::DEFAULT,
            dbas.iter().map(|&d| Dba(d)).collect(),
            Scn(snapshot),
            1,
        )
    }

    #[test]
    fn register_and_cover() {
        let s = ImcsStore::new();
        let o = s.ensure_object(ObjectId(1), TenantId::DEFAULT);
        o.register(Arc::new(ImcuHandle::new(pending_unit(1, &[1, 2], 5))));
        assert!(o.covers(Dba(1)));
        assert!(o.covers(Dba(2)));
        assert!(!o.covers(Dba(3)));
        assert_eq!(o.unit_count(), 1);
        assert!(s.object(ObjectId(1)).is_some());
        assert!(s.object(ObjectId(2)).is_none());
    }

    #[test]
    fn ensure_object_is_idempotent() {
        let s = ImcsStore::new();
        let a = s.ensure_object(ObjectId(1), TenantId::DEFAULT);
        let b = s.ensure_object(ObjectId(1), TenantId::DEFAULT);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn invalidation_routes_to_covering_handle() {
        let s = ImcsStore::new();
        let o = s.ensure_object(ObjectId(1), TenantId::DEFAULT);
        let h = Arc::new(ImcuHandle::new(pending_unit(1, &[7], 5)));
        o.register(h.clone());
        let loc = RowLoc { dba: Dba(7), slot: 0 };
        assert!(s.invalidate(ObjectId(1), loc, Scn(9)));
        // Pending unit holds no rows → recorded as a post-snapshot insert.
        assert_eq!(h.smu().read().fallback_count(), 1);
        // Uncovered block: not routed.
        assert!(!s.invalidate(ObjectId(1), RowLoc { dba: Dba(99), slot: 0 }, Scn(9)));
        // Unknown object: not routed.
        assert!(!s.invalidate(ObjectId(9), loc, Scn(9)));
    }

    #[test]
    fn swap_preserves_newer_smu_entries() {
        let h = ImcuHandle::new(pending_unit(1, &[1], 5));
        h.invalidate(RowLoc { dba: Dba(1), slot: 0 }, Scn(10));
        h.invalidate(RowLoc { dba: Dba(1), slot: 1 }, Scn(30));
        // Rebuild at snapshot 20: the SCN-10 entry is absorbed.
        h.swap(pending_unit(1, &[1], 20));
        assert_eq!(h.smu().read().fallback_count(), 1);
    }

    #[test]
    fn coarse_invalidation_scoped_to_tenant() {
        let s = ImcsStore::new();
        let o1 = s.ensure_object(ObjectId(1), TenantId(1));
        let o2 = s.ensure_object(ObjectId(2), TenantId(2));
        let h1 = Arc::new(ImcuHandle::new(Imcu::pending(
            ObjectId(1),
            TenantId(1),
            vec![Dba(1)],
            Scn(5),
            1,
        )));
        let h2 = Arc::new(ImcuHandle::new(Imcu::pending(
            ObjectId(2),
            TenantId(2),
            vec![Dba(2)],
            Scn(5),
            1,
        )));
        o1.register(h1.clone());
        o2.register(h2.clone());
        assert_eq!(s.mark_tenant_invalid(TenantId(1)), 1);
        assert!(h1.smu().read().all_invalid());
        assert!(!h2.smu().read().all_invalid());
    }

    #[test]
    fn drop_object_removes_units() {
        let s = ImcsStore::new();
        let o = s.ensure_object(ObjectId(1), TenantId::DEFAULT);
        o.register(Arc::new(ImcuHandle::new(pending_unit(1, &[1], 5))));
        s.drop_object(ObjectId(1));
        assert!(s.object(ObjectId(1)).is_none());
    }
}
