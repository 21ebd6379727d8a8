#pragma once

/// \file seq_ring.hpp
/// The one lock-free ring behind the tracer's request log and its span
/// and event rings (obs/reqtrace.hpp): a fixed-size ring of trivially
/// copyable records, each slot guarded by a seqlock stamp pair. Writers
/// never wait, readers never block writers, and records travel as relaxed
/// atomic 64-bit words, so a racing reader sees a torn value, never a data
/// race.
///
/// Stamp protocol (Boehm, "Can seqlocks get along with programming
/// language memory models?", MSPC 2012). Both stamps hold seq+1, so an
/// all-zero slot reads as empty. The writer opens the slot by moving
/// `begin` past `end`, issues a release fence, stores the words, then
/// stores `end` with release. The reader loads `end` with acquire, loads
/// the words, issues an acquire fence and re-loads `begin`; the slot is
/// whole iff `begin == end`. The fences guarantee that a reader which saw
/// any word of a newer write also sees that write's `begin`; without them
/// a weakly ordered CPU may pair new words with the old stamp. On x86 both
/// compile to nothing. TSan does not model standalone fences (GCC warns
/// under -Wtsan); harmless here, as every shared access is atomic.
///
/// Stamps are unique sequence numbers, so a reader lapped mid-copy sees
/// mismatched stamps, never a false match. Two writers N records apart
/// meet on one slot when the older one stalls while the ring laps it; its
/// late stores would mix words under matching stamps. So a writer opens
/// only an idle slot (`begin == end`) holding an older record, by
/// compare-exchange, and otherwise drops its record. The seq still counts
/// in pushed(), and writers still never wait.

#include <algorithm>
#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>
#include <utility>
#include <vector>

namespace treecode::obs {

template <class T, std::size_t N>
class SeqRing {
  static_assert(std::is_trivially_copyable_v<T>, "records are copied with memcpy");
  static_assert(N > 0 && (N & (N - 1)) == 0, "ring index uses a mask");

 public:
  /// Store one record; returns its sequence number (0, 1, 2, ... in claim
  /// order across all threads). Wait-free and allocation-free. The record
  /// is dropped if its slot is still being written by an earlier writer the
  /// ring has lapped, or already holds a newer record.
  std::uint64_t push(const T& record) noexcept {
    Words words{};
    std::memcpy(static_cast<void*>(words.data()), &record, sizeof(T));
    const std::uint64_t seq = next_.fetch_add(1, std::memory_order_relaxed);
    Slot& slot = slots_[seq & (N - 1)];
    // Acquire: the previous writer's words happen-before ours.
    std::uint64_t idle = slot.end.load(std::memory_order_acquire);
    if (idle > seq || !slot.begin.compare_exchange_strong(
                          idle, seq + 1, std::memory_order_relaxed)) {
      return seq;
    }
    std::atomic_thread_fence(std::memory_order_release);
    for (std::size_t w = 0; w < kWords; ++w) {
      slot.words[w].store(words[w], std::memory_order_relaxed);
    }
    slot.end.store(seq + 1, std::memory_order_release);
    return seq;
  }

  /// Every whole record as (seq, record), oldest first. Slots never written,
  /// mid-write or torn are skipped. Safe concurrently with push().
  [[nodiscard]] std::vector<std::pair<std::uint64_t, T>> snapshot() const {
    std::vector<std::pair<std::uint64_t, T>> out;
    out.reserve(N);
    for (const Slot& slot : slots_) {
      const std::uint64_t end = slot.end.load(std::memory_order_acquire);
      if (end == 0) continue;  // never written
      Words words;
      for (std::size_t w = 0; w < kWords; ++w) {
        words[w] = slot.words[w].load(std::memory_order_relaxed);
      }
      std::atomic_thread_fence(std::memory_order_acquire);
      if (slot.begin.load(std::memory_order_relaxed) != end) continue;  // torn
      T record;
      std::memcpy(static_cast<void*>(&record), words.data(), sizeof(T));
      out.emplace_back(end - 1, record);
    }
    std::sort(out.begin(), out.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    return out;
  }

  /// Records pushed since the last clear(), overwritten ones included.
  [[nodiscard]] std::uint64_t pushed() const noexcept {
    return next_.load(std::memory_order_relaxed);
  }

  /// Empty the ring and restart seqs at 0. Not safe concurrently with push().
  void clear() noexcept {
    for (Slot& slot : slots_) {
      slot.begin.store(0, std::memory_order_relaxed);
      slot.end.store(0, std::memory_order_relaxed);
    }
    next_.store(0, std::memory_order_relaxed);
  }

 private:
  static constexpr std::size_t kWords = (sizeof(T) + 7) / 8;
  using Words = std::array<std::uint64_t, kWords>;

  struct Slot {
    std::atomic<std::uint64_t> begin{0};
    std::atomic<std::uint64_t> end{0};
    std::array<std::atomic<std::uint64_t>, kWords> words{};
  };

  std::array<Slot, N> slots_{};
  std::atomic<std::uint64_t> next_{0};
};

}  // namespace treecode::obs
