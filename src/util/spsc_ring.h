// ERA: 8
// Single-writer lossy sequence-numbered ring — the wire format of the live
// telemetry transport (kernel/telemetry.h), laid out over raw shared memory
// (util/shm_region.h) so an out-of-process reader can follow a live run.
//
// Contract (the SwQueue idiom from ROADMAP item 4):
//   - Exactly one writer. The writer NEVER blocks, waits, or checks for
//     readers: Push is a fixed number of atomic stores regardless of how many
//     taps are attached (including zero). This is what makes the transport
//     zero-perturbation — a slow reader can lose events but can never slow
//     the simulation down or change its cycle accounting.
//   - Any number of independent readers, each tracking its own next sequence
//     number. A reader that falls more than `capacity` records behind finds
//     its slot overwritten and resynchronises to the oldest live record,
//     reporting the exact number of records it missed (head - capacity is the
//     oldest surviving sequence number, so the gap is precise, not a guess).
//   - Torn reads are detected with a per-slot begin/end sequence pair
//     (a per-record seqlock): the writer bumps `begin` before touching the
//     payload and `end` after, so a reader that raced an overwrite sees
//     begin != end-for-its-sequence and retries or skips.
//
// Every word in the shared region is a std::atomic<uint64_t> accessed with
// explicit ordering — no plain loads/stores touch shared bytes, so the TSan
// fleet leg can map the same region in-process and hammer it from a reader
// thread without false positives (and without real races).
#ifndef TOCK_UTIL_SPSC_RING_H_
#define TOCK_UTIL_SPSC_RING_H_

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace tock {

// Geometry + write cursor, at the front of the ring's memory. The cursor sits
// alone on its cache line so reader polling never contends with the payload
// slots, and the geometry words let a reader validate a mapping it did not
// create.
struct SpscRingHeader {
  alignas(64) std::atomic<uint64_t> head;  // sequence of the NEXT record
  std::atomic<uint64_t> geometry;          // capacity<<32 | word_count
};
static_assert(sizeof(SpscRingHeader) == 64, "header must fill one cache line");

// One slot: [begin seq][end seq][payload words...]. begin/end carry seq+1 of
// the record currently stored (0 = never written).
inline constexpr size_t kSpscSlotOverheadWords = 2;

inline constexpr size_t SpscSlotWords(size_t word_count) {
  return kSpscSlotOverheadWords + word_count;
}

// Total bytes a ring with this geometry occupies, for region sizing.
inline constexpr size_t SpscRingBytes(size_t capacity, size_t word_count) {
  return sizeof(SpscRingHeader) +
         capacity * SpscSlotWords(word_count) * sizeof(uint64_t);
}

class SpscWriter {
 public:
  // Formats `mem` (which must hold SpscRingBytes(capacity, word_count), be
  // 64-byte aligned, and start zeroed) and takes the writer role. `capacity`
  // must be a power of two.
  void Init(void* mem, uint64_t capacity, uint32_t word_count) {
    header_ = static_cast<SpscRingHeader*>(mem);
    slots_ = reinterpret_cast<std::atomic<uint64_t>*>(header_ + 1);
    capacity_ = capacity;
    word_count_ = word_count;
    header_->head.store(0, std::memory_order_relaxed);
    header_->geometry.store((capacity << 32) | word_count,
                            std::memory_order_release);
  }

  bool valid() const { return header_ != nullptr; }
  uint64_t capacity() const { return capacity_; }

  // Publishes one record. Fixed cost, never blocks; the oldest unread record
  // is silently overwritten when the ring is full (readers detect the gap).
  void Push(const uint64_t* words) {
    const uint64_t seq = header_->head.load(std::memory_order_relaxed);
    std::atomic<uint64_t>* slot =
        slots_ + (seq & (capacity_ - 1)) * SpscSlotWords(word_count_);
    // begin first, then payload: a reader that saw any overwritten payload
    // word is guaranteed to also see the new begin and reject the read. Each
    // payload word is a release store the reader loads with acquire, so the
    // begin store is ordered before it without a standalone fence, in a form
    // ThreadSanitizer models (on x86 both are plain moves).
    slot[0].store(seq + 1, std::memory_order_relaxed);
    for (uint32_t i = 0; i < word_count_; ++i) {
      slot[kSpscSlotOverheadWords + i].store(words[i],
                                             std::memory_order_release);
    }
    slot[1].store(seq + 1, std::memory_order_release);  // end: record complete
    header_->head.store(seq + 1, std::memory_order_release);
  }

  // Sequence of the next record == total records ever published.
  uint64_t published() const {
    return header_->head.load(std::memory_order_relaxed);
  }

  // Records overwritten before any possible reader could still reach them
  // (monotone, writer-side, independent of whether anyone is attached).
  uint64_t evicted() const {
    const uint64_t head = published();
    return head > capacity_ ? head - capacity_ : 0;
  }

 private:
  SpscRingHeader* header_ = nullptr;
  std::atomic<uint64_t>* slots_ = nullptr;
  uint64_t capacity_ = 0;
  uint32_t word_count_ = 0;
};

class SpscReader {
 public:
  enum class Poll : uint8_t { kEmpty, kRecord };

  // Validates and attaches to a ring formatted by SpscWriter::Init. `bytes`
  // is what the mapping actually has left at `mem`; a truncated or garbage
  // region fails here instead of faulting later.
  bool Bind(const void* mem, size_t bytes) {
    if (mem == nullptr || bytes < sizeof(SpscRingHeader)) return false;
    header_ = static_cast<const SpscRingHeader*>(mem);
    const uint64_t geometry = header_->geometry.load(std::memory_order_acquire);
    const uint64_t capacity = geometry >> 32;
    const uint32_t word_count = static_cast<uint32_t>(geometry);
    if (capacity == 0 || (capacity & (capacity - 1)) != 0 ||
        word_count == 0 || word_count > kMaxWordCount ||
        bytes < SpscRingBytes(capacity, word_count)) {
      header_ = nullptr;
      return false;
    }
    slots_ = reinterpret_cast<const std::atomic<uint64_t>*>(header_ + 1);
    capacity_ = capacity;
    word_count_ = word_count;
    next_ = 0;
    lost_ = 0;
    return true;
  }

  bool valid() const { return header_ != nullptr; }
  uint32_t word_count() const { return word_count_; }
  uint64_t capacity() const { return capacity_; }

  // Copies the next record into `words_out` (word_count() words). If records
  // were overwritten before we got to them, `*gap_out` receives the exact
  // count of records lost immediately before the returned one (0 when none).
  Poll PollNext(uint64_t* words_out, uint64_t* gap_out) {
    uint64_t gap = 0;
    for (int attempt = 0; attempt < kTornRetryLimit; ++attempt) {
      const uint64_t head = header_->head.load(std::memory_order_acquire);
      if (next_ >= head) {
        if (gap_out != nullptr) *gap_out = 0;
        return Poll::kEmpty;  // caught up (any gap already charged persists
                              // in lost_ and re-reports on the next record)
      }
      const uint64_t oldest = head > capacity_ ? head - capacity_ : 0;
      if (next_ < oldest) {  // fell behind: jump to the oldest live record
        gap += oldest - next_;
        lost_ += oldest - next_;
        next_ = oldest;
      }
      const std::atomic<uint64_t>* slot =
          slots_ + (next_ & (capacity_ - 1)) * SpscSlotWords(word_count_);
      if (slot[1].load(std::memory_order_acquire) != next_ + 1) {
        continue;  // writer is mid-publish for this slot; head will confirm
      }
      // Acquire payload loads pair with the writer's release payload stores:
      // a word from a newer record makes that record's begin visible to the
      // check below.
      for (uint32_t i = 0; i < word_count_; ++i) {
        words_out[i] =
            slot[kSpscSlotOverheadWords + i].load(std::memory_order_acquire);
      }
      if (slot[0].load(std::memory_order_relaxed) == next_ + 1) {
        ++next_;
        if (gap_out != nullptr) *gap_out = gap;
        return Poll::kRecord;
      }
      // Torn: the writer lapped us mid-copy. Re-resync from head and retry.
    }
    // Writer stalled mid-overwrite of exactly this slot (descheduled between
    // begin and end). Skip the one record rather than spinning forever.
    ++next_;
    ++lost_;
    ++gap;
    if (gap_out != nullptr) *gap_out = gap;
    return Poll::kEmpty;
  }

  // Total records this reader missed (sum of all reported gaps + skips).
  uint64_t lost() const { return lost_; }
  // Sequence number of the next record this reader will return.
  uint64_t next_seq() const { return next_; }
  // Records currently published by the writer (for drain loops).
  uint64_t published() const {
    return header_->head.load(std::memory_order_acquire);
  }

  static constexpr uint32_t kMaxWordCount = 64;
  static constexpr int kTornRetryLimit = 64;

 private:
  const SpscRingHeader* header_ = nullptr;
  const std::atomic<uint64_t>* slots_ = nullptr;
  uint64_t capacity_ = 0;
  uint32_t word_count_ = 0;
  uint64_t next_ = 0;
  uint64_t lost_ = 0;
};

}  // namespace tock

#endif  // TOCK_UTIL_SPSC_RING_H_
