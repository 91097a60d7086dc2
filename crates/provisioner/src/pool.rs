//! The instance pool: running instances, job assignment, hourly reuse.
//!
//! Spot billing is hourly with round-up (paper §2.1), so the provisioner
//! keeps instances alive after their job finishes and reuses them for
//! queued jobs of a compatible profile; idle instances are released just
//! before their next hour boundary — at 3300 seconds into the hour, the
//! margin the paper's launch experiments adopted after observing up to
//! five minutes of termination latency (§4.2).

use crate::job::{Job, JobProfile};
use spotmarket::catalog::Catalog;
use spotmarket::lifecycle::InstanceId;
use spotmarket::{Combo, Price, HOUR};

/// Release idle instances at this offset into their billed hour.
pub const IDLE_RELEASE_OFFSET: u64 = 3300;

/// How a pool member is billed (and whether the market can revoke it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntryKind {
    /// A spot instance owned by the market simulator: revocable, billed at
    /// the market price of each hour start.
    Spot,
    /// An on-demand instance: never revoked, billed at the fixed hourly
    /// price. Lives only in the pool — the spot simulator never sees it.
    OnDemand,
}

/// A pool member.
#[derive(Debug, Clone)]
pub struct PoolEntry {
    /// The simulator's instance id (spot), or a provisioner-assigned id
    /// outside the simulator's range (on-demand).
    pub id: InstanceId,
    /// The market it runs in.
    pub combo: Combo,
    /// Launch time.
    pub launched_at: u64,
    /// The job currently running, if any.
    pub running_job: Option<u32>,
    /// When the current job will finish (meaningful when busy).
    pub busy_until: u64,
    /// Billing class.
    pub kind: EntryKind,
    /// Fixed hourly price (meaningful for [`EntryKind::OnDemand`]; spot
    /// entries are billed by the simulator and carry `Price::ZERO` here).
    pub hourly: Price,
}

impl PoolEntry {
    /// Whether the instance can take a job.
    pub fn is_idle(&self) -> bool {
        self.running_job.is_none()
    }

    /// The next time this idle instance should be released: the
    /// `IDLE_RELEASE_OFFSET` point of its current billed hour (or the next
    /// one if already past it).
    pub fn release_time(&self, now: u64) -> u64 {
        debug_assert!(now >= self.launched_at);
        let into_hour = (now - self.launched_at) % HOUR;
        let hour_start = now - into_hour;
        if into_hour < IDLE_RELEASE_OFFSET {
            hour_start + IDLE_RELEASE_OFFSET
        } else {
            hour_start + HOUR + IDLE_RELEASE_OFFSET
        }
    }
}

/// The provisioner's view of its running instances.
#[derive(Debug, Default)]
pub struct Pool {
    entries: Vec<PoolEntry>,
}

impl Pool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a freshly launched instance.
    pub fn add(&mut self, entry: PoolEntry) {
        self.entries.push(entry);
    }

    /// Number of pool members.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates members.
    pub fn iter(&self) -> impl Iterator<Item = &PoolEntry> {
        self.entries.iter()
    }

    /// Mutable entry lookup.
    pub fn get_mut(&mut self, id: InstanceId) -> Option<&mut PoolEntry> {
        self.entries.iter_mut().find(|e| e.id == id)
    }

    /// Finds an idle instance of billing class `kind` whose type can run
    /// `profile`, preferring the one closest to its next hour boundary (use
    /// the hours already paid for). A replay never reuses a paid spot hour
    /// for a job its scheduler sent to on-demand, or vice versa.
    pub fn find_idle_kind(
        &mut self,
        catalog: &Catalog,
        profile: &JobProfile,
        now: u64,
        kind: EntryKind,
    ) -> Option<&mut PoolEntry> {
        let suitable: Vec<spotmarket::TypeId> = crate::job::suitable_types(catalog, profile);
        self.entries
            .iter_mut()
            .filter(|e| e.kind == kind && e.is_idle() && suitable.contains(&e.combo.ty))
            .min_by_key(|e| e.release_time(now))
    }

    /// Assigns `job` to an entry (must be idle).
    ///
    /// # Panics
    /// Panics if the entry is busy.
    pub fn assign(entry: &mut PoolEntry, job: &Job, now: u64) {
        assert!(entry.is_idle(), "assigning to a busy instance");
        entry.running_job = Some(job.id);
        entry.busy_until = now + job.runtime;
    }

    /// Marks an entry idle again, returning the job id it ran.
    pub fn finish(entry: &mut PoolEntry) -> Option<u32> {
        entry.running_job.take()
    }

    /// Removes an instance from the pool (terminated), returning its entry.
    pub fn remove(&mut self, id: InstanceId) -> Option<PoolEntry> {
        let idx = self.entries.iter().position(|e| e.id == id)?;
        Some(self.entries.swap_remove(idx))
    }

    /// Idle entries inside the release window of their billed hour (the
    /// last `HOUR - IDLE_RELEASE_OFFSET` seconds before the boundary).
    pub fn due_for_release(&self, now: u64) -> Vec<InstanceId> {
        self.entries
            .iter()
            .filter(|e| e.is_idle() && (now - e.launched_at) % HOUR >= IDLE_RELEASE_OFFSET)
            .map(|e| e.id)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spotmarket::catalog::Family;
    use spotmarket::{Az, Catalog};

    fn entry(id: u64, ty_name: &str, launched_at: u64) -> PoolEntry {
        let cat = Catalog::standard();
        PoolEntry {
            id: InstanceId(id),
            combo: Combo::new(
                Az::parse("us-west-2a").unwrap(),
                cat.type_id(ty_name).unwrap(),
            ),
            launched_at,
            running_job: None,
            busy_until: 0,
            kind: EntryKind::Spot,
            hourly: Price::ZERO,
        }
    }

    fn profile() -> JobProfile {
        JobProfile {
            family: Family::Compute,
            min_vcpus: 2,
            min_mem_gb: 3.0,
            est_runtime: 600,
        }
    }

    #[test]
    fn release_time_targets_3300s_into_hour() {
        let e = entry(1, "c4.large", 1000);
        assert_eq!(e.release_time(1000), 1000 + 3300);
        assert_eq!(e.release_time(1000 + 3299), 1000 + 3300);
        // Past the release point: next hour's offset.
        assert_eq!(e.release_time(1000 + 3400), 1000 + HOUR + 3300);
        assert_eq!(e.release_time(1000 + HOUR), 1000 + HOUR + 3300);
    }

    #[test]
    fn find_idle_matches_profile_and_prefers_soonest_release() {
        let cat = Catalog::standard();
        let mut pool = Pool::new();
        pool.add(entry(1, "c4.large", 0)); // releases at 3300
        pool.add(entry(2, "c4.large", 1200)); // releases at 4500
        pool.add(entry(3, "m1.small", 0)); // wrong family/capacity
        let found = pool
            .find_idle_kind(cat, &profile(), 2000, EntryKind::Spot)
            .unwrap();
        assert_eq!(found.id, InstanceId(1));
    }

    #[test]
    fn find_idle_kind_separates_billing_classes() {
        let cat = Catalog::standard();
        let mut pool = Pool::new();
        pool.add(entry(1, "c4.large", 0));
        let mut od = entry(2, "c4.large", 0);
        od.kind = EntryKind::OnDemand;
        od.hourly = Price::from_ticks(1_050);
        pool.add(od);
        let spot = pool
            .find_idle_kind(cat, &profile(), 100, EntryKind::Spot)
            .unwrap();
        assert_eq!(spot.id, InstanceId(1));
        let od = pool
            .find_idle_kind(cat, &profile(), 100, EntryKind::OnDemand)
            .unwrap();
        assert_eq!(od.id, InstanceId(2));
        assert_eq!(od.hourly, Price::from_ticks(1_050));
    }

    #[test]
    fn busy_instances_are_not_offered() {
        let cat = Catalog::standard();
        let mut pool = Pool::new();
        let mut e = entry(1, "c4.large", 0);
        e.running_job = Some(7);
        pool.add(e);
        assert!(pool
            .find_idle_kind(cat, &profile(), 100, EntryKind::Spot)
            .is_none());
    }

    #[test]
    fn assign_and_finish_round_trip() {
        let mut e = entry(1, "c4.large", 0);
        let job = Job {
            id: 9,
            submit_offset: 0,
            runtime: 500,
            deadline: 5_000,
            profile: profile(),
        };
        Pool::assign(&mut e, &job, 100);
        assert!(!e.is_idle());
        assert_eq!(e.busy_until, 600);
        assert_eq!(Pool::finish(&mut e), Some(9));
        assert!(e.is_idle());
    }

    #[test]
    #[should_panic(expected = "busy instance")]
    fn double_assignment_panics() {
        let mut e = entry(1, "c4.large", 0);
        let job = Job {
            id: 9,
            submit_offset: 0,
            runtime: 500,
            deadline: 5_000,
            profile: profile(),
        };
        Pool::assign(&mut e, &job, 100);
        Pool::assign(&mut e, &job, 200);
    }

    #[test]
    fn remove_evicts_entry() {
        let mut pool = Pool::new();
        pool.add(entry(1, "c4.large", 0));
        assert!(pool.remove(InstanceId(1)).is_some());
        assert!(pool.remove(InstanceId(1)).is_none());
        assert!(pool.is_empty());
    }
}
