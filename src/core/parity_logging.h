// PARITY LOGGING — the paper's novel reliability policy (§2.2).
//
// A page is not bound to a server or a parity group: every pageout goes to a
// fresh slot on the next data server in round-robin order while the client
// XORs the page into an in-memory parity accumulator. After S pages the
// accumulator is shipped to the parity server and the group is sealed, so a
// pageout costs 1 + 1/S page transfers instead of mirroring's 2.
//
// Re-paging-out a page marks its previous version *inactive* in the old
// group, but the old bytes stay on their server (footnote 3: deleting them
// would force a parity update). A group whose entries are all inactive is
// reclaimed wholesale: every slot plus the parity slot is freed. The stale
// versions living in sealed groups are why servers need ~10% overflow
// memory; when a server still runs out, garbage collection "combin[es] the
// active pages to new ones".
//
// Group construction guarantees at most one entry per server per group (a
// group is flushed early rather than doubling up), so a single server crash
// loses at most one entry per group and every loss is reconstructible as
// parity XOR surviving entries. The open group is covered too: its parity
// accumulator lives in client memory.

#ifndef SRC_CORE_PARITY_LOGGING_H_
#define SRC_CORE_PARITY_LOGGING_H_

#include <cstdint>
#include <map>
#include <unordered_map>
#include <vector>

#include "src/core/remote_pager.h"

namespace rmp {

struct ParityLoggingParams {
  // Entries per parity group; 0 means "number of data servers".
  int group_size = 0;
  // Sealed groups whose inactive fraction triggers GC eligibility first.
  int gc_reclaim_target = 64;  // Pages of server memory GC tries to free.
};

class ParityLoggingBackend final : public RemotePagerBase {
 public:
  // The peer at `parity_peer` is the parity server; all others hold data.
  // The parity server is an ordinary MemoryServer — it "just performs
  // pageins and pageouts... without knowing whether it stores memory pages
  // or parity pages" (§3.2).
  ParityLoggingBackend(Cluster cluster, std::shared_ptr<NetworkFabric> fabric,
                       const RemotePagerParams& params, size_t parity_peer,
                       const ParityLoggingParams& pl_params = ParityLoggingParams());

  Result<TimeNs> PageOut(TimeNs now, uint64_t page_id, std::span<const uint8_t> data) override;
  Result<TimeNs> PageIn(TimeNs now, uint64_t page_id, std::span<uint8_t> out) override;

  std::string Name() const override { return "PARITY_LOGGING"; }

  // Reconstructs every page lost to the crash of `peer_index` (data or
  // parity server) and re-establishes redundancy. Affected groups are
  // dissolved: their active pages are re-paged-out into fresh groups.
  // Implemented as a loop over RepairStep, so the one-shot and the
  // coordinator-driven incremental paths share every line.
  Status Recover(size_t peer_index, TimeNs* now);

  // Incremental repair quantum. For the parity server, rebuilds sealed
  // groups' parity in queue-driven chunks; for a data server, dissolves a
  // page budget's worth of affected groups per call (degraded XOR
  // reconstruction of the lost member, survivors re-homed into fresh
  // groups). 0 = redundancy fully restored.
  Result<uint64_t> RepairStep(size_t peer, uint64_t max_pages, TimeNs* now) override;

  // Overload drain (§2.1): re-pages-out up to `max_pages` *active* pages
  // living on `peer` into fresh groups elsewhere. The retired slots stay on
  // the server until their groups reclaim — deleting them would force a
  // parity update (footnote 3) — so a drain bounds active pages, not total
  // occupancy. The parity server cannot be drained (its role is fixed);
  // asking reports completion immediately.
  Result<uint64_t> MigrateStep(size_t peer, uint64_t max_pages, TimeNs* now) override;

  // Forces a garbage-collection pass (also triggered automatically when
  // every data server denies allocation).
  Status GarbageCollect(TimeNs* now);

  // --- Introspection for tests, invariants and the ablation benches -------

  struct EntrySnapshot {
    size_t peer = 0;
    uint64_t slot = 0;
    uint64_t page_id = 0;
    bool active = false;
  };
  struct GroupSnapshot {
    uint64_t group_id = 0;
    std::vector<EntrySnapshot> entries;
    uint64_t parity_slot = 0;
    bool sealed = false;
  };
  std::vector<GroupSnapshot> Snapshot() const;

  size_t parity_peer() const { return parity_peer_; }
  int64_t groups_reclaimed() const { return groups_reclaimed_; }
  int64_t gc_passes() const { return gc_passes_; }
  int64_t parity_flushes() const { return parity_flushes_; }
  int64_t live_groups() const { return static_cast<int64_t>(groups_.size()); }
  // Pages held in client memory because re-placement failed (see unplaced_).
  size_t unplaced_pages() const { return unplaced_.size(); }

  // Client-side structural invariants; returns the first violation found.
  Status CheckInvariants() const;

 private:
  struct GroupEntry {
    size_t peer = 0;
    uint64_t slot = 0;
    uint64_t page_id = 0;
    bool active = false;
  };
  struct ParityGroup {
    std::vector<GroupEntry> entries;
    uint64_t parity_slot = 0;
    bool sealed = false;
    int active_count = 0;
  };
  struct PageLocation {
    uint64_t group_id = 0;
    size_t entry_index = 0;
  };

  int EffectiveGroupSize() const;

  // Marks the active version of `page_id` (if any) inactive; reclaims the
  // group when it empties.
  void RetireOldVersion(uint64_t page_id, TimeNs* now);

  // Sends `data` to a data server not yet used by the open group and logs it
  // into the open group + accumulator. The core pageout step, shared with GC
  // and recovery re-placement.
  Status PlacePage(uint64_t page_id, std::span<const uint8_t> data, TimeNs* now);

  // Re-homes pages GC or recovery took off their dissolved groups. After
  // the first placement error the remaining pages go to unplaced_ instead
  // of being dropped; returns that error.
  Status PlaceOrHold(std::vector<std::pair<uint64_t, PageBuffer>>* stash, TimeNs* now);

  // Ships the accumulator to the parity server and seals the open group.
  // The write is issued pipelined: over a real transport it stays in flight
  // while the next stripe's pageouts proceed, and is settled by
  // JoinParityFlush at the next point that needs it.
  Status FlushParity(TimeNs* now);

  // Settles the outstanding parity write (if any) and folds its modeled
  // completion time into *now. Must run before anything reads or frees the
  // pending group's parity slot.
  Status JoinParityFlush(TimeNs* now);

  // Frees every server slot of a dead group (all entries inactive).
  void ReclaimGroup(uint64_t group_id, TimeNs* now);

  // Chunked halves of RepairStep.
  Result<uint64_t> RebuildParityChunk(uint64_t max_pages, TimeNs* now);
  Result<uint64_t> RecoverDataChunk(size_t peer_index, uint64_t max_pages, TimeNs* now);

  // True if the open group already holds an entry on `peer`.
  bool OpenGroupUses(size_t peer) const;

  Result<size_t> PickDataPeer(TimeNs* now);

  std::vector<size_t> DataPeers() const;

  size_t parity_peer_;
  ParityLoggingParams pl_params_;

  std::map<uint64_t, ParityGroup> groups_;  // Ordered: GC scans oldest first.
  uint64_t open_group_id_ = 0;
  uint64_t next_group_id_ = 1;
  PageBuffer accumulator_;
  std::unordered_map<uint64_t, PageLocation> table_;
  // Pages that lost their group and could not be placed again (every data
  // server refused). They live only in client memory, like the open group's
  // accumulator: PageIn serves them from here, a newer PageOut retires them,
  // and the next GC pass re-places them. Disjoint from table_.
  std::unordered_map<uint64_t, PageBuffer> unplaced_;

  int64_t groups_reclaimed_ = 0;
  int64_t gc_passes_ = 0;
  int64_t parity_flushes_ = 0;
  bool in_gc_ = false;

  // In-progress parity-server rebuild: sealed groups still awaiting a new
  // parity page. Populated by the first RebuildParityChunk of a repair,
  // drained chunk by chunk; cleared on error so a retry re-enumerates.
  std::vector<uint64_t> parity_rebuild_queue_;
  bool parity_rebuild_active_ = false;

  // Outstanding parity write. Over an in-process transport the future
  // completes inline and only the completion time stays pending; over TCP
  // the write itself overlaps the next stripe's pageouts.
  RpcFuture pending_parity_;
  uint64_t pending_parity_group_ = 0;
  TimeNs pending_parity_completion_ = 0;
};

}  // namespace rmp

#endif  // SRC_CORE_PARITY_LOGGING_H_
