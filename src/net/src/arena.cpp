#include "dut/net/arena.hpp"

#include <algorithm>

#include "dut/net/transport/transport.hpp"

namespace dut::net::detail {

void RoundArena::reset(std::uint32_t first, std::uint32_t span) {
  first_ = first;
  pending_records_.clear();
  pending_payload_.clear();
  pending_receivers_.clear();
  pending_count_.assign(span, 0);
  delivered_records_.clear();
  delivered_payload_.clear();
  receivers_.clear();
  inbox_begin_.assign(span, 0);
  inbox_count_.assign(span, 0);
  // Deferred-delivery state must go too: a run aborted mid-flight (e.g. a
  // ProtocolViolation on a pooled engine) may have left delayed messages
  // queued, and replaying them into the next trial would corrupt it.
  deferred_records_.clear();
  deferred_payload_.clear();
}

void RoundArena::push(const ArenaRecord& rec) {
  pending_records_.push_back(rec);
  if (pending_count_[rec.to - first_]++ == 0) {
    pending_receivers_.push_back(rec.to);
  }
}

void RoundArena::enqueue(const ArenaRecord& rec,
                         std::span<const std::uint64_t> fields,
                         bool duplicate) {
  ArenaRecord stored = rec;
  stored.payload_begin = pending_payload_.size();
  pending_payload_.insert(pending_payload_.end(), fields.begin(),
                          fields.end());
  push(stored);
  // The duplicate shares the original's payload range (and corruption).
  if (duplicate) push(stored);
}

void RoundArena::defer(const ArenaRecord& rec,
                       std::span<const std::uint64_t> fields,
                       std::uint64_t due_round, bool duplicate) {
  DeferredRecord d{rec, due_round};
  d.rec.payload_begin = deferred_payload_.size();
  deferred_payload_.insert(deferred_payload_.end(), fields.begin(),
                           fields.end());
  deferred_records_.push_back(d);
  if (duplicate) deferred_records_.push_back(d);
}

void RoundArena::inject_deferred(std::uint64_t round, TransportHooks& hooks) {
  if (deferred_records_.empty()) return;
  std::size_t kept = 0;
  for (const DeferredRecord& d : deferred_records_) {
    if (d.due_round > round) {
      deferred_records_[kept++] = d;
      continue;
    }
    if (hooks.is_halted(d.rec.to)) {
      hooks.count_expired(d.rec.sender, d.rec.to);
      continue;
    }
    enqueue(d.rec,
            {deferred_payload_.data() + d.rec.payload_begin,
             d.rec.num_fields},
            /*duplicate=*/false);
  }
  deferred_records_.resize(kept);
  // The slab can only be reclaimed once nothing references it; the deferral
  // window is bounded by max_delay_rounds, so this happens regularly.
  if (deferred_records_.empty()) deferred_payload_.clear();
}

void RoundArena::expire_deferred(TransportHooks& hooks) {
  for (const DeferredRecord& d : deferred_records_) {
    hooks.count_expired(d.rec.sender, d.rec.to);
  }
  deferred_records_.clear();
  deferred_payload_.clear();
}

void RoundArena::flip() {
  // Forget last round's inboxes: only its receivers hold non-zero entries.
  for (const std::uint32_t v : receivers_) {
    inbox_begin_[v - first_] = 0;
    inbox_count_[v - first_] = 0;
  }
  receivers_.swap(pending_receivers_);
  pending_receivers_.clear();
  std::sort(receivers_.begin(), receivers_.end());
  // Lay the inboxes out in receiver order, parking each cursor at its
  // inbox's end; the backward pass below then fills every inbox from its
  // back, which keeps arrival order (a stable scatter).
  std::size_t end = 0;
  for (const std::uint32_t v : receivers_) {
    const std::uint32_t i = v - first_;
    end += pending_count_[i];
    inbox_begin_[i] = end;
    inbox_count_[i] = pending_count_[i];
    pending_count_[i] = 0;
  }
  delivered_records_.resize(pending_records_.size());
  for (auto it = pending_records_.rbegin(); it != pending_records_.rend();
       ++it) {
    delivered_records_[--inbox_begin_[it->to - first_]] = *it;
  }
  // The pending slab becomes the delivered slab; payload_begin offsets in
  // the records stay valid across the swap.
  std::swap(pending_payload_, delivered_payload_);
  pending_records_.clear();
  pending_payload_.clear();
}

}  // namespace dut::net::detail
