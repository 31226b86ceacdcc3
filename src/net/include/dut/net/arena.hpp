#pragma once

// Round-arena message views and the round arena itself, shared by the
// engine and its transports.
//
// A message in flight is an ArenaRecord (header) plus a run of words in a
// payload slab; a node's inbox for one round is a contiguous range of
// records over the delivered side of the arena. The engine's NodeContext
// hands programs an InboxView; which arena the view points into is the
// transport's business (see dut/net/transport/transport.hpp). Both
// transports keep their delivered side in one detail::RoundArena, so the
// scatter and the delayed-delivery buffers exist once.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "dut/net/message.hpp"

namespace dut::net {

class TransportHooks;

namespace detail {

/// One in-flight message in the round arena: header here, fields in the
/// payload slab at [payload_begin, payload_begin + num_fields).
struct ArenaRecord {
  std::uint32_t sender = 0;
  std::uint32_t to = 0;
  std::uint32_t num_fields = 0;
  std::uint64_t bits = 0;
  std::size_t payload_begin = 0;
};

}  // namespace detail

/// A node's inbox for one round: a CSR range of arena records. Iteration
/// yields MessageView values ordered by sender id ascending (send order
/// within one sender). Views are valid only for the current round.
class InboxView {
 public:
  class iterator {
   public:
    using value_type = MessageView;
    using difference_type = std::ptrdiff_t;

    iterator(const detail::ArenaRecord* rec,
             const std::uint64_t* payload) noexcept
        : rec_(rec), payload_(payload) {}

    MessageView operator*() const noexcept {
      return MessageView(rec_->sender, rec_->bits,
                         payload_ + rec_->payload_begin, rec_->num_fields);
    }
    iterator& operator++() noexcept {
      ++rec_;
      return *this;
    }
    bool operator==(const iterator& other) const noexcept {
      return rec_ == other.rec_;
    }
    bool operator!=(const iterator& other) const noexcept {
      return rec_ != other.rec_;
    }

   private:
    const detail::ArenaRecord* rec_;
    const std::uint64_t* payload_;
  };

  InboxView() noexcept = default;
  InboxView(const detail::ArenaRecord* first, std::size_t count,
            const std::uint64_t* payload) noexcept
      : first_(first), count_(count), payload_(payload) {}

  std::size_t size() const noexcept { return count_; }
  bool empty() const noexcept { return count_ == 0; }

  MessageView operator[](std::size_t i) const noexcept {
    const detail::ArenaRecord& rec = first_[i];
    return MessageView(rec.sender, rec.bits, payload_ + rec.payload_begin,
                       rec.num_fields);
  }

  iterator begin() const noexcept { return {first_, payload_}; }
  iterator end() const noexcept { return {first_ + count_, payload_}; }

 private:
  const detail::ArenaRecord* first_ = nullptr;
  std::size_t count_ = 0;
  const std::uint64_t* payload_ = nullptr;
};

namespace detail {

/// One round's delivery state over a contiguous node range [first, first +
/// span): the pending side (messages queued for the next flip, in arrival
/// order) and the delivered side (this round's inboxes), plus the deferred
/// buffer for delayed messages. Each destination is recorded at its first
/// enqueue of the round, so flip() sorts only the round's receivers and
/// scatters in O(messages + receivers log receivers) — no pass over the
/// whole node range. The scatter is stable: an inbox lists its messages in
/// arrival order. Buffers keep their capacity across rounds and runs.
class RoundArena {
 public:
  /// Clears every buffer (capacity kept) and sizes the per-node tables for
  /// a run over [first, first + span).
  void reset(std::uint32_t first, std::uint32_t span);

  /// Queues a message for the next flip; `fields` is copied. `duplicate`
  /// queues a second record sharing the same payload.
  void enqueue(const ArenaRecord& rec, std::span<const std::uint64_t> fields,
               bool duplicate);
  /// Holds a delayed message (and its duplicate) until `due_round`.
  void defer(const ArenaRecord& rec, std::span<const std::uint64_t> fields,
             std::uint64_t due_round, bool duplicate);
  /// Moves deferred messages due by `round` behind the pending ones, in
  /// deferral order; copies addressed to halted nodes expire instead.
  void inject_deferred(std::uint64_t round, TransportHooks& hooks);
  /// Expires everything still deferred (end-of-run settlement).
  void expire_deferred(TransportHooks& hooks);

  /// Round boundary: the pending side becomes the delivered side.
  void flip();

  InboxView inbox(std::uint32_t node) const noexcept {
    const std::uint32_t i = node - first_;
    return InboxView(delivered_records_.data() + inbox_begin_[i],
                     inbox_count_[i], delivered_payload_.data());
  }
  std::uint32_t pending_to(std::uint32_t node) const noexcept {
    return pending_count_[node - first_];
  }
  /// Nodes with a non-empty inbox this round, ascending.
  std::span<const std::uint32_t> receivers() const noexcept {
    return receivers_;
  }
  bool has_pending() const noexcept { return !pending_records_.empty(); }

 private:
  struct DeferredRecord {
    ArenaRecord rec;  // payload_begin indexes deferred_payload_
    std::uint64_t due_round = 0;
  };

  void push(const ArenaRecord& rec);

  std::uint32_t first_ = 0;
  std::vector<ArenaRecord> pending_records_;
  std::vector<std::uint64_t> pending_payload_;
  std::vector<std::uint32_t> pending_receivers_;  // first-enqueue order
  std::vector<std::uint32_t> pending_count_;      // per node, this round

  std::vector<ArenaRecord> delivered_records_;
  std::vector<std::uint64_t> delivered_payload_;
  std::vector<std::uint32_t> receivers_;      // sorted
  std::vector<std::size_t> inbox_begin_;      // valid for receivers_ only;
  std::vector<std::uint32_t> inbox_count_;    // zero for everyone else

  // Delayed messages keep their payload in a slab of their own, so round
  // flips never invalidate the offsets.
  std::vector<DeferredRecord> deferred_records_;
  std::vector<std::uint64_t> deferred_payload_;
};

}  // namespace detail

}  // namespace dut::net
