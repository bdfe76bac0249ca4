#include "src/core/parity_logging.h"

#include <algorithm>
#include <cassert>
#include <limits>

#include "src/util/logging.h"

namespace rmp {

ParityLoggingBackend::ParityLoggingBackend(Cluster cluster, std::shared_ptr<NetworkFabric> fabric,
                                           const RemotePagerParams& params, size_t parity_peer,
                                           const ParityLoggingParams& pl_params)
    : RemotePagerBase(std::move(cluster), std::move(fabric), params),
      parity_peer_(parity_peer),
      pl_params_(pl_params) {
  assert(parity_peer_ < cluster_.size());
  assert(cluster_.size() >= 2 && "parity logging needs at least one data server");
  open_group_id_ = next_group_id_++;
  groups_[open_group_id_] = ParityGroup{};
}

std::vector<size_t> ParityLoggingBackend::DataPeers() const {
  std::vector<size_t> peers;
  for (size_t i = 0; i < cluster_.size(); ++i) {
    if (i != parity_peer_) {
      peers.push_back(i);
    }
  }
  return peers;
}

int ParityLoggingBackend::EffectiveGroupSize() const {
  if (pl_params_.group_size > 0) {
    return pl_params_.group_size;
  }
  return static_cast<int>(cluster_.size()) - 1;
}

bool ParityLoggingBackend::OpenGroupUses(size_t peer) const {
  const ParityGroup& open = groups_.at(open_group_id_);
  for (const GroupEntry& e : open.entries) {
    if (e.peer == peer) {
      return true;
    }
  }
  return false;
}

Result<size_t> ParityLoggingBackend::PickDataPeer(TimeNs* now) {
  for (int round = 0; round < 2; ++round) {
    bool any_usable = false;
    const std::vector<size_t> data_peers = DataPeers();
    // Round-robin scan starting after the cursor.
    for (size_t step = 1; step <= data_peers.size(); ++step) {
      const size_t i = data_peers[(rr_cursor_ + step) % data_peers.size()];
      const ServerPeer& peer = cluster_.peer(i);
      if (!peer.usable()) {
        continue;
      }
      any_usable = true;
      if (OpenGroupUses(i)) {
        continue;
      }
      rr_cursor_ = (rr_cursor_ + step) % data_peers.size();
      return i;
    }
    if (!any_usable) {
      return NoSpaceError("no usable data server");
    }
    // Every usable server already appears in the open group: the group has
    // saturated its distinct-server budget, so seal it early and retry.
    RMP_RETURN_IF_ERROR(FlushParity(now));
  }
  return InternalError("data peer selection failed after parity flush");
}

void ParityLoggingBackend::RetireOldVersion(uint64_t page_id, TimeNs* now) {
  unplaced_.erase(page_id);
  auto it = table_.find(page_id);
  if (it == table_.end()) {
    return;
  }
  const PageLocation loc = it->second;
  table_.erase(it);
  auto git = groups_.find(loc.group_id);
  if (git == groups_.end()) {
    return;
  }
  ParityGroup& group = git->second;
  GroupEntry& entry = group.entries[loc.entry_index];
  if (!entry.active) {
    return;
  }
  entry.active = false;
  --group.active_count;
  if (group.sealed && group.active_count == 0) {
    ReclaimGroup(loc.group_id, now);
  }
}

void ParityLoggingBackend::ReclaimGroup(uint64_t group_id, TimeNs* now) {
  if (pending_parity_.valid() && group_id == pending_parity_group_) {
    // This group's parity write may still be in flight; settle it before
    // freeing the slot it targets. A failed write is moot — the slots are
    // being freed anyway.
    (void)JoinParityFlush(now);
  }
  auto git = groups_.find(group_id);
  if (git == groups_.end()) {
    return;
  }
  ParityGroup& group = git->second;
  assert(group.sealed && group.active_count == 0);
  for (const GroupEntry& entry : group.entries) {
    ServerPeer& peer = cluster_.peer(entry.peer);
    if (peer.alive()) {
      (void)peer.FreeOn(entry.slot, 1);
    }
  }
  ServerPeer& parity = cluster_.peer(parity_peer_);
  if (parity.alive()) {
    (void)parity.FreeOn(group.parity_slot, 1);
  }
  // One batched free announcement on the wire per reclaimed group.
  *now = ChargeControl(*now);
  groups_.erase(git);
  ++groups_reclaimed_;
}

Status ParityLoggingBackend::JoinParityFlush(TimeNs* now) {
  if (pending_parity_completion_ != 0) {
    // The next stripe's pageouts were charged concurrently with the parity
    // transfer; only now does anyone have to wait for its completion.
    *now = std::max(*now, pending_parity_completion_);
    pending_parity_completion_ = 0;
  }
  if (!pending_parity_.valid()) {
    return OkStatus();
  }
  RpcFuture flush = std::move(pending_parity_);
  ServerPeer& parity = cluster_.peer(parity_peer_);
  auto advise = parity.JoinPageOut(std::move(flush));
  if (!advise.ok()) {
    return advise.status();
  }
  // ADVISE_STOP from the parity server is deliberately ignored: parity slots
  // are granted through AllocExtent, which applies its own backpressure, and
  // stopping flushes would leave sealed groups without redundancy.
  return OkStatus();
}

Status ParityLoggingBackend::FlushParity(TimeNs* now) {
  const TimeNs parity_start = *now;
  // At most one parity write rides the wire at a time: settle the previous
  // stripe's flush before issuing this one.
  RMP_RETURN_IF_ERROR(JoinParityFlush(now));
  if (groups_.at(open_group_id_).entries.empty()) {
    return OkStatus();
  }
  ServerPeer& parity = cluster_.peer(parity_peer_);
  if (!parity.alive()) {
    return UnavailableError("parity server is down");
  }
  auto slot = TakeSlotOn(parity_peer_, now);
  if (!slot.ok() && slot.status().code() == ErrorCode::kNoSpace && !in_gc_) {
    const uint64_t group_before_gc = open_group_id_;
    RMP_RETURN_IF_ERROR(GarbageCollect(now));
    if (open_group_id_ != group_before_gc) {
      // GC re-placement filled and sealed the group we were flushing (its
      // parity went out with the GC entries folded in), so the job is done.
      return OkStatus();
    }
    slot = TakeSlotOn(parity_peer_, now);
  }
  if (!slot.ok()) {
    return slot.status();
  }
  // Re-acquire after every potentially reentrant call above.
  ParityGroup& open = groups_.at(open_group_id_);
  RpcFuture flush = parity.StartPageOut(*slot, accumulator_.span());
  const TimeNs completion = ChargePageTransferAsync(*now, parity_peer_);
  if (flush.ready()) {
    // In-process transports complete inline; settle now so a failed write
    // surfaces before the group is sealed. The completion time still joins
    // lazily — the next stripe's pageouts overlap the parity transfer.
    // ADVISE_STOP is ignored, as in JoinParityFlush.
    auto advise = parity.JoinPageOut(std::move(flush));
    if (!advise.ok() && ShouldRetry(parity_peer_, advise.status())) {
      // The parity write was lost in flight but the server survived;
      // rewriting the same slot is idempotent, so retry before declaring
      // the group unsealable.
      parity.mark_alive();
      ChargeBackoff(1, now);
      advise = ReliablePageOut(parity_peer_, *slot, accumulator_.span(), now);
    }
    if (!advise.ok()) {
      return advise.status();
    }
  } else {
    pending_parity_ = std::move(flush);
    pending_parity_group_ = open_group_id_;
  }
  pending_parity_completion_ = completion;
  ++parity_flushes_;
  open.parity_slot = *slot;
  open.sealed = true;
  const uint64_t sealed_id = open_group_id_;
  // Open a fresh group before any reclamation below invalidates references.
  open_group_id_ = next_group_id_++;
  groups_[open_group_id_] = ParityGroup{};
  accumulator_.Clear();
  ParityGroup& sealed = groups_.at(sealed_id);
  if (sealed.active_count == 0) {
    ReclaimGroup(sealed_id, now);
  }
  tracer_.Span(TraceStage::kParity, parity_start, *now);
  return OkStatus();
}

Status ParityLoggingBackend::PlacePage(uint64_t page_id, std::span<const uint8_t> data,
                                       TimeNs* now) {
  for (int attempt = 0; attempt < 8; ++attempt) {
    auto pick = PickDataPeer(now);
    if (!pick.ok()) {
      if (pick.status().code() == ErrorCode::kNoSpace && !in_gc_) {
        RMP_RETURN_IF_ERROR(GarbageCollect(now));
        continue;
      }
      return pick.status();
    }
    const size_t peer_index = *pick;
    ServerPeer& peer = cluster_.peer(peer_index);
    auto slot = TakeSlotOn(peer_index, now);
    if (!slot.ok()) {
      if (slot.status().code() == ErrorCode::kNoSpace) {
        peer.set_stopped(true);
        continue;
      }
      if (IsRetryableError(slot.status())) {
        continue;
      }
      return slot.status();
    }
    auto advise = ReliablePageOut(peer_index, *slot, data, now);
    if (!advise.ok()) {
      if (IsRetryableError(advise.status())) {
        continue;  // The placement loop moves on to another server.
      }
      return advise.status();
    }
    *now = ChargePageTransferAsync(*now, peer_index);
    if (*advise && !in_gc_) {
      // GC has just overridden this advice (reopen_servers: any free page
      // is fair game) and must not stall on it part-way through
      // re-placement; the first pageout after GC re-asserts it.
      peer.set_no_new_extents(true);
    }
    accumulator_.XorWith(data);
    ParityGroup& open = groups_.at(open_group_id_);
    open.entries.push_back(GroupEntry{peer_index, *slot, page_id, true});
    ++open.active_count;
    table_[page_id] = PageLocation{open_group_id_, open.entries.size() - 1};
    if (static_cast<int>(open.entries.size()) >= EffectiveGroupSize()) {
      RMP_RETURN_IF_ERROR(FlushParity(now));
    }
    return OkStatus();
  }
  return NoSpaceError("remote memory exhausted (consider more overflow memory)");
}

Status ParityLoggingBackend::PlaceOrHold(std::vector<std::pair<uint64_t, PageBuffer>>* stash,
                                         TimeNs* now) {
  Status result = OkStatus();
  for (auto& [page_id, page] : *stash) {
    if (result.ok()) {
      result = PlacePage(page_id, page.span(), now);
    }
    // A page whose placement landed before a later step failed (the parity
    // flush) is already in table_.
    if (!result.ok() && table_.count(page_id) == 0) {
      unplaced_.insert_or_assign(page_id, std::move(page));
    }
  }
  return result;
}

Result<TimeNs> ParityLoggingBackend::PageOut(TimeNs now, uint64_t page_id,
                                             std::span<const uint8_t> data) {
  if (data.size() != kPageSize) {
    return InvalidArgumentError("page must be exactly kPageSize bytes");
  }
  ++stats_.pageouts;
  const TimeNs start = now;
  TraceScope trace(&tracer_, TraceOp::kPageOut, page_id, &now);
  RetireOldVersion(page_id, &now);
  RMP_RETURN_IF_ERROR(PlacePage(page_id, data, &now));
  stats_.paging_time += now - start;
  trace.set_ok();
  return now;
}

Result<TimeNs> ParityLoggingBackend::PageIn(TimeNs now, uint64_t page_id,
                                            std::span<uint8_t> out) {
  if (auto held = unplaced_.find(page_id); held != unplaced_.end()) {
    ++stats_.pageins;
    std::copy(held->second.span().begin(), held->second.span().end(), out.begin());
    return now;
  }
  auto it = table_.find(page_id);
  if (it == table_.end()) {
    return NotFoundError("page " + std::to_string(page_id) + " was never paged out");
  }
  ++stats_.pageins;
  const TimeNs start = now;
  TraceScope trace(&tracer_, TraceOp::kPageIn, page_id, &now);
  const PageLocation loc = it->second;
  const ParityGroup& group = groups_.at(loc.group_id);
  const GroupEntry& entry = group.entries[loc.entry_index];
  ServerPeer& peer = cluster_.peer(entry.peer);
  if (peer.alive() || peer.transport().connected()) {
    const Status status = ReliablePageIn(entry.peer, entry.slot, out, &now);
    if (status.ok()) {
      now = ChargePageTransfer(now, entry.peer);
      stats_.paging_time += now - start;
      trace.set_ok();
      return now;
    }
    if (!IsRetryableError(status)) {
      return status;
    }
  }
  // The holding server crashed: reconstruct everything it held, then the
  // page is live again on a healthy server. The read is degraded — it is
  // served by XOR over the group's survivors, not by the stored copy.
  ++stats_.degraded_reads;
  const TimeNs parity_start = now;
  RMP_RETURN_IF_ERROR(Recover(entry.peer, &now));
  tracer_.Span(TraceStage::kParity, parity_start, now);
  auto retry = table_.find(page_id);
  if (retry == table_.end()) {
    return InternalError("page lost during recovery");
  }
  const ParityGroup& new_group = groups_.at(retry->second.group_id);
  const GroupEntry& new_entry = new_group.entries[retry->second.entry_index];
  RMP_RETURN_IF_ERROR(ReliablePageIn(new_entry.peer, new_entry.slot, out, &now));
  now = ChargePageTransfer(now, new_entry.peer);
  stats_.paging_time += now - start;
  trace.set_ok();
  return now;
}

Status ParityLoggingBackend::GarbageCollect(TimeNs* now) {
  if (in_gc_) {
    return InternalError("re-entrant garbage collection");
  }
  in_gc_ = true;
  ++gc_passes_;
  // Victims: sealed groups with the fewest active pages reclaim the most
  // server memory per transferred page.
  std::vector<std::pair<int, uint64_t>> candidates;
  for (const auto& [group_id, group] : groups_) {
    if (group.sealed) {
      candidates.emplace_back(group.active_count, group_id);
    }
  }
  std::sort(candidates.begin(), candidates.end());

  auto reopen_servers = [&] {
    // A denial marked servers stopped; reclamation frees their memory, so
    // probe them again (a server with any free page is usable for GC).
    for (size_t i = 0; i < cluster_.size(); ++i) {
      ServerPeer& peer = cluster_.peer(i);
      if (peer.alive() && (peer.stopped() || peer.no_new_extents())) {
        auto load = peer.QueryLoad();
        *now = ChargeControl(*now);
        if (load.ok() && load->free_pages > 0) {
          // Under GC pressure any free page is fair game: ADVISE_STOP is
          // load advice, and the next pageout ack re-asserts it if the
          // server is still squeezed.
          peer.set_stopped(false);
          peer.set_no_new_extents(false);
        }
      }
    }
  };
  reopen_servers();

  // Select the victim set up front: enough of the emptiest groups to meet the
  // reclaim target. Choosing before reading lets the reads batch per server
  // *across* victims — a single group puts at most one entry on any server,
  // so PAGEIN_BATCH only pays off once several groups compact together.
  std::vector<uint64_t> victims;
  int freed = 0;
  for (const auto& [active_count, group_id] : candidates) {
    if (freed >= pl_params_.gc_reclaim_target) {
      break;
    }
    victims.push_back(group_id);
    freed += static_cast<int>(groups_.at(group_id).entries.size()) + 1;
  }

  // Stash every victim's active pages in client memory (nothing has been
  // reclaimed yet, so every slot is still valid). Holding them client-side
  // keeps single-crash recoverability: exactly like a page in flight during
  // a normal pageout, the client copy IS the redundancy until the page lands
  // in a new group.
  std::vector<PageWant> wants;
  std::vector<uint64_t> stash_ids;
  for (const uint64_t group_id : victims) {
    for (const GroupEntry& entry : groups_.at(group_id).entries) {
      if (entry.active) {
        wants.push_back(PageWant{entry.peer, entry.slot});
        stash_ids.push_back(entry.page_id);
      }
    }
  }
  std::vector<PageBuffer> fetched;
  const Status fetch_status = BatchFetch(wants, &fetched, now);
  if (!fetch_status.ok()) {
    in_gc_ = false;
    return fetch_status;
  }
  // Pages an earlier pass could not place ride along with this pass's.
  std::vector<std::pair<uint64_t, PageBuffer>> stash;
  stash.reserve(stash_ids.size() + unplaced_.size());
  for (size_t i = 0; i < stash_ids.size(); ++i) {
    stash.emplace_back(stash_ids[i], std::move(fetched[i]));
  }
  for (auto& [page_id, page] : unplaced_) {
    stash.emplace_back(page_id, std::move(page));
  }
  unplaced_.clear();

  // Reclaim every victim *before* re-placing, so their slots provide the
  // very space the re-placement needs (the way out of the full-cluster
  // bind).
  for (const uint64_t group_id : victims) {
    auto git = groups_.find(group_id);
    if (git == groups_.end()) {
      continue;
    }
    ParityGroup& group = git->second;
    for (GroupEntry& entry : group.entries) {
      if (entry.active) {
        table_.erase(entry.page_id);
        entry.active = false;
      }
    }
    group.active_count = 0;
    ReclaimGroup(group_id, now);
  }
  reopen_servers();

  const Status result = PlaceOrHold(&stash, now);
  in_gc_ = false;
  if (result.ok() && freed == 0) {
    return NoSpaceError("garbage collection found nothing to reclaim");
  }
  return result;
}

Status ParityLoggingBackend::Recover(size_t peer_index, TimeNs* now) {
  // Unbounded budget: one chunk dissolves every affected group before any
  // re-homing, which (unlike incremental chunks) frees all survivor slots
  // up front — the legacy behavior tight-capacity callers rely on.
  while (true) {
    auto done = RepairStep(peer_index, std::numeric_limits<uint64_t>::max(), now);
    if (!done.ok()) {
      return done.status();
    }
    if (*done == 0) {
      return OkStatus();
    }
  }
}

Result<uint64_t> ParityLoggingBackend::RepairStep(size_t peer, uint64_t max_pages, TimeNs* now) {
  if (max_pages == 0) {
    return InvalidArgumentError("repair chunk must be at least one page");
  }
  if (peer == parity_peer_) {
    return RebuildParityChunk(max_pages, now);
  }
  return RecoverDataChunk(peer, max_pages, now);
}

Result<uint64_t> ParityLoggingBackend::RebuildParityChunk(uint64_t max_pages, TimeNs* now) {
  ServerPeer& parity = cluster_.peer(parity_peer_);
  if (!parity_rebuild_active_) {
    // Data pages are intact; only redundancy was lost. A parity write caught
    // in flight by the crash is moot — every sealed group's parity is about
    // to be rebuilt onto the (restarted) parity server. Reset() is the
    // single revival path: the stale slot pool and any leftover stop /
    // extent-denial flags die with the server's previous life.
    (void)JoinParityFlush(now);
    parity.Reset();
    parity_rebuild_queue_.clear();
    for (const auto& [group_id, group] : groups_) {
      if (group.sealed) {
        parity_rebuild_queue_.push_back(group_id);
      }
    }
    parity_rebuild_active_ = true;
  }
  // Pop a page budget's worth of groups off the queue (member reads plus one
  // parity write per group). Groups reclaimed or dissolved since enqueue are
  // skipped. The reads batch per data server across groups, and the rebuilt
  // parity pages go back out as batched writes.
  std::vector<uint64_t> chunk_ids;
  std::vector<PageWant> wants;
  uint64_t processed = 0;
  size_t popped = 0;
  while (popped < parity_rebuild_queue_.size()) {
    const uint64_t group_id = parity_rebuild_queue_[popped];
    auto git = groups_.find(group_id);
    if (git == groups_.end() || !git->second.sealed) {
      ++popped;
      continue;
    }
    const uint64_t cost = git->second.entries.size() + 1;
    if (!chunk_ids.empty() && processed + cost > max_pages) {
      break;
    }
    for (const GroupEntry& entry : git->second.entries) {
      wants.push_back(PageWant{entry.peer, entry.slot});
    }
    chunk_ids.push_back(group_id);
    processed += cost;
    ++popped;
  }
  if (chunk_ids.empty()) {
    parity_rebuild_queue_.clear();
    parity_rebuild_active_ = false;
    return 0;  // Every sealed group has live parity again.
  }
  auto status = [&]() -> Status {
    std::vector<PageBuffer> pages;
    RMP_RETURN_IF_ERROR(BatchFetch(wants, &pages, now));
    std::vector<uint64_t> parity_slots;
    std::vector<uint8_t> parity_pages;
    parity_slots.reserve(chunk_ids.size());
    parity_pages.reserve(chunk_ids.size() * kPageSize);
    size_t next_page = 0;
    for (const uint64_t group_id : chunk_ids) {
      ParityGroup& group = groups_.at(group_id);
      PageBuffer rebuilt;
      for (size_t e = 0; e < group.entries.size(); ++e) {
        rebuilt.XorWith(pages[next_page++].span());
      }
      auto slot = TakeSlotOn(parity_peer_, now);
      if (!slot.ok()) {
        return slot.status();
      }
      group.parity_slot = *slot;
      parity_slots.push_back(*slot);
      parity_pages.insert(parity_pages.end(), rebuilt.span().begin(), rebuilt.span().end());
    }
    for (size_t pos = 0; pos < parity_slots.size(); pos += kMaxBatchPages) {
      const size_t n = std::min<size_t>(kMaxBatchPages, parity_slots.size() - pos);
      // ADVISE_STOP from the parity server is ignored, as in FlushParity.
      auto advise = parity.PageOutBatchTo(
          std::span<const uint64_t>(parity_slots).subspan(pos, n),
          std::span<const uint8_t>(parity_pages).subspan(pos * kPageSize, n * kPageSize));
      if (!advise.ok()) {
        return advise.status();
      }
      *now = ChargePageBatchTransfer(*now, n, parity_peer_);
    }
    stats_.reconstructions += static_cast<int64_t>(chunk_ids.size());
    RMP_LOG(kInfo) << "parity logging: rebuilt parity for " << chunk_ids.size() << " groups";
    return OkStatus();
  }();
  if (!status.ok()) {
    // E.g. the parity server is not back yet. The retry re-enumerates from
    // scratch; parity slots already written get re-provisioned rather than
    // reused — a benign leak on a server that restarted empty.
    parity_rebuild_queue_.clear();
    parity_rebuild_active_ = false;
    return status;
  }
  parity_rebuild_queue_.erase(parity_rebuild_queue_.begin(),
                              parity_rebuild_queue_.begin() + popped);
  return processed;
}

Result<uint64_t> ParityLoggingBackend::RecoverDataChunk(size_t peer_index, uint64_t max_pages,
                                                        TimeNs* now) {
  ServerPeer& failed = cluster_.peer(peer_index);
  failed.mark_dead();
  failed.DropPool();

  // A pending parity write must land before reconstruction reads sealed
  // parity back; a failure here means the pending group lost its redundancy
  // to a double fault, which is beyond the single-crash guarantee.
  RMP_RETURN_IF_ERROR(JoinParityFlush(now));

  // Collect affected groups (any entry on the dead server), including open,
  // up to the page budget (survivor reads plus a parity read per sealed
  // group). The scan is stateless: groups dissolved by earlier chunks no
  // longer reference the peer, so repeated calls converge to 0.
  std::vector<uint64_t> affected;
  uint64_t budget_used = 0;
  for (const auto& [group_id, group] : groups_) {
    bool hit = false;
    for (const GroupEntry& entry : group.entries) {
      if (entry.peer == peer_index) {
        hit = true;
        break;
      }
    }
    if (!hit) {
      continue;
    }
    const uint64_t cost = group.entries.size() + (group.sealed ? 1 : 0);
    if (!affected.empty() && budget_used + cost > max_pages) {
      break;
    }
    affected.push_back(group_id);
    budget_used += cost;
  }
  if (affected.empty()) {
    return 0;  // No group references the dead peer any more.
  }

  // Stage every read the reconstruction needs — each group's survivors plus
  // its stored parity — in one batched sweep. Survivors of different groups
  // share servers, so the per-peer batches grow with the number of affected
  // groups; within a group the members still land on distinct servers, so
  // nothing serializes that used to overlap.
  std::vector<PageWant> wants;
  for (const uint64_t group_id : affected) {
    const ParityGroup& group = groups_.at(group_id);
    for (const GroupEntry& entry : group.entries) {
      if (entry.peer != peer_index) {
        wants.push_back(PageWant{entry.peer, entry.slot});
      }
    }
    if (group.sealed) {
      wants.push_back(PageWant{parity_peer_, group.parity_slot});
    }
  }
  std::vector<PageBuffer> fetched;
  RMP_RETURN_IF_ERROR(BatchFetch(wants, &fetched, now));

  std::vector<std::pair<uint64_t, PageBuffer>> stash;  // Active pages to re-home.
  bool open_dissolved = false;
  size_t next_fetch = 0;
  for (const uint64_t group_id : affected) {
    ParityGroup& group = groups_.at(group_id);
    const GroupEntry* lost = nullptr;
    // Reconstruction seed: sealed groups use the stored parity (fetched
    // after the group's survivors below); the open group's parity is the
    // in-memory accumulator.
    PageBuffer xor_buf;
    if (!group.sealed) {
      xor_buf = accumulator_;
    }
    for (size_t e = 0; e < group.entries.size(); ++e) {
      const GroupEntry& entry = group.entries[e];
      if (entry.peer == peer_index) {
        if (lost != nullptr) {
          return InternalError("two entries of one parity group on one server");
        }
        lost = &entry;
        continue;
      }
      const PageBuffer& page = fetched[next_fetch++];
      xor_buf.XorWith(page.span());
      if (entry.active) {
        // Dissolving the group surrenders this page's redundancy; re-home it.
        stash.emplace_back(entry.page_id, page);
      }
    }
    if (group.sealed) {
      xor_buf.XorWith(fetched[next_fetch++].span());
    }
    if (lost != nullptr && lost->active) {
      stash.emplace_back(lost->page_id, xor_buf);  // The reconstructed page.
      ++stats_.reconstructions;
    }
    // Dissolve: free surviving slots and the parity slot, drop the group.
    for (const GroupEntry& entry : group.entries) {
      if (entry.peer == peer_index) {
        continue;
      }
      ServerPeer& peer = cluster_.peer(entry.peer);
      if (peer.alive()) {
        (void)peer.FreeOn(entry.slot, 1);
      }
      if (entry.active) {
        table_.erase(entry.page_id);
      }
    }
    if (lost != nullptr && lost->active) {
      table_.erase(lost->page_id);
    }
    if (group.sealed) {
      (void)cluster_.peer(parity_peer_).FreeOn(group.parity_slot, 1);
    } else {
      open_dissolved = true;
    }
    *now = ChargeControl(*now);
    groups_.erase(group_id);
  }
  if (open_dissolved || groups_.count(open_group_id_) == 0) {
    open_group_id_ = next_group_id_++;
    groups_[open_group_id_] = ParityGroup{};
    accumulator_.Clear();
  }
  // Re-home every rescued page through the normal pageout path.
  RMP_RETURN_IF_ERROR(PlaceOrHold(&stash, now));
  RMP_LOG(kInfo) << "parity logging: recovered from crash of peer " << peer_index << ", re-homed "
                 << stash.size() << " pages across " << affected.size() << " groups";
  return budget_used;
}

Result<uint64_t> ParityLoggingBackend::MigrateStep(size_t peer, uint64_t max_pages, TimeNs* now) {
  if (peer == parity_peer_) {
    return 0;  // The parity server's role is fixed; its ADVISE_STOP is ignored.
  }
  ServerPeer& source = cluster_.peer(peer);
  if (!source.alive()) {
    return UnavailableError("cannot migrate from a crashed server");
  }
  if (!source.stopped()) {
    source.set_stopped(true);
  }
  std::vector<uint64_t> victims;
  for (const auto& [group_id, group] : groups_) {
    for (const GroupEntry& entry : group.entries) {
      if (entry.active && entry.peer == peer) {
        victims.push_back(entry.page_id);
        if (victims.size() >= max_pages) {
          break;
        }
      }
    }
    if (victims.size() >= max_pages) {
      break;
    }
  }
  if (victims.empty()) {
    return 0;  // Only retired versions remain; their groups reclaim them.
  }
  PageBuffer buffer;
  for (const uint64_t page_id : victims) {
    const PageLocation loc = table_.at(page_id);
    // A plain read, not MIGRATE: the old slot must survive until its group
    // reclaims, because the group's parity covers those bytes (footnote 3).
    const uint64_t slot = groups_.at(loc.group_id).entries[loc.entry_index].slot;
    RMP_RETURN_IF_ERROR(ReliablePageIn(peer, slot, buffer.span(), now));
    *now = ChargePageTransfer(*now, peer);
    RetireOldVersion(page_id, now);
    RMP_RETURN_IF_ERROR(PlacePage(page_id, buffer.span(), now));
  }
  return victims.size();
}

std::vector<ParityLoggingBackend::GroupSnapshot> ParityLoggingBackend::Snapshot() const {
  std::vector<GroupSnapshot> out;
  out.reserve(groups_.size());
  for (const auto& [group_id, group] : groups_) {
    GroupSnapshot snap;
    snap.group_id = group_id;
    snap.parity_slot = group.parity_slot;
    snap.sealed = group.sealed;
    for (const GroupEntry& entry : group.entries) {
      snap.entries.push_back(EntrySnapshot{entry.peer, entry.slot, entry.page_id, entry.active});
    }
    out.push_back(std::move(snap));
  }
  return out;
}

Status ParityLoggingBackend::CheckInvariants() const {
  for (const auto& [group_id, group] : groups_) {
    int active = 0;
    std::vector<size_t> peers_seen;
    for (const GroupEntry& entry : group.entries) {
      if (entry.active) {
        ++active;
        auto it = table_.find(entry.page_id);
        if (it == table_.end()) {
          return InternalError("active entry without table mapping (group " +
                               std::to_string(group_id) + ")");
        }
        if (it->second.group_id != group_id) {
          return InternalError("table points elsewhere for page " +
                               std::to_string(entry.page_id));
        }
      }
      if (std::find(peers_seen.begin(), peers_seen.end(), entry.peer) != peers_seen.end()) {
        return InternalError("group " + std::to_string(group_id) +
                             " holds two entries on one server");
      }
      peers_seen.push_back(entry.peer);
      if (entry.peer == parity_peer_) {
        return InternalError("data entry on the parity server");
      }
    }
    if (active != group.active_count) {
      return InternalError("active_count drift in group " + std::to_string(group_id));
    }
    if (group.sealed && group.active_count == 0) {
      return InternalError("dead sealed group " + std::to_string(group_id) + " not reclaimed");
    }
    if (!group.sealed && group_id != open_group_id_) {
      return InternalError("unsealed non-open group " + std::to_string(group_id));
    }
  }
  for (const auto& [page_id, loc] : table_) {
    auto git = groups_.find(loc.group_id);
    if (git == groups_.end()) {
      return InternalError("table points to reclaimed group for page " + std::to_string(page_id));
    }
    if (loc.entry_index >= git->second.entries.size()) {
      return InternalError("table entry index out of range for page " + std::to_string(page_id));
    }
    const GroupEntry& entry = git->second.entries[loc.entry_index];
    if (entry.page_id != page_id || !entry.active) {
      return InternalError("table mapping stale for page " + std::to_string(page_id));
    }
  }
  for (const auto& [page_id, page] : unplaced_) {
    if (table_.count(page_id) != 0) {
      return InternalError("page " + std::to_string(page_id) + " both placed and held");
    }
  }
  return OkStatus();
}

}  // namespace rmp
