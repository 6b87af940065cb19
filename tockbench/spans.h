// Host-time spans recorded by the benchmark around its calls into the
// simulator's public functions. A span has a name, a start, an end and the
// span that caused it (setup -> image build, epoch -> board step -> call).
// Every span is folded into per-name totals; the first `keep` spans are also
// kept verbatim and written out as a Chrome trace when the run ends.
#ifndef TOCKBENCH_SPANS_H_
#define TOCKBENCH_SPANS_H_

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <string>
#include <vector>

namespace tockbench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

// CPU time of the calling thread. The guest kernel accounts hypervisor steal
// separately, so this excludes both steal and time the thread sat descheduled:
// bursts of either lengthen wall time but not this.
inline uint64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000u + static_cast<uint64_t>(ts.tv_nsec);
}

enum class SpanName : uint8_t {
  kSetup,           // one deployment: images, boards, boot, clock alignment
  kImageBuild,      // BuildAppImage / AppInstaller::Install (assembler, TBF, signing)
  kConstruct,       // SimBoard constructor
  kBoot,            // SimBoard::Boot (loader and verification)
  kRun,             // the measured simulated span
  kEpoch,           // one lockstep epoch over every board
  kStep,            // one board's share of an epoch
  kPumpInbox,       // Radio::PumpInbox
  kIdleFastForward, // Radio::InboxEmpty + Kernel::TryIdleFastForward
  kMainLoop,        // Kernel::MainLoop
  kEpochBarrier,    // SimBoard::OnEpochBarrier (telemetry snapshot)
  kCount,
};

inline const char* SpanNameStr(SpanName name) {
  static constexpr const char* kNames[] = {
      "setup", "image_build", "construct", "boot",      "run",           "epoch",
      "step",  "pump_inbox",  "idle_ff",   "main_loop", "epoch_barrier",
  };
  return kNames[static_cast<size_t>(name)];
}

class Tracer {
 public:
  static constexpr uint32_t kNone = UINT32_MAX;

  explicit Tracer(size_t keep) : keep_(keep) { kept_.reserve(std::min<size_t>(keep, 1 << 16)); }

  // Opens a span as a child of the innermost open one.
  void Begin(SpanName name) {
    const uint32_t parent = open_.empty() ? kNone : open_.back().id;
    uint32_t id = kNone;
    if (kept_.size() < keep_) {
      id = static_cast<uint32_t>(kept_.size());
      kept_.push_back(Span{name, parent, 0, 0});
    }
    open_.push_back(Open{name, id, NowNs()});
  }

  // Closes the innermost open span and returns its duration in nanoseconds.
  uint64_t End() {
    const uint64_t end = NowNs();
    const Open open = open_.back();
    open_.pop_back();
    const uint64_t ns = end - open.start_ns;
    const size_t slot = static_cast<size_t>(open.name);
    total_ns_[slot] += ns;
    ++count_[slot];
    if (open.id != kNone) {
      kept_[open.id].start_ns = open.start_ns;
      kept_[open.id].end_ns = end;
    }
    return ns;
  }

  uint64_t total_ns(SpanName name) const { return total_ns_[static_cast<size_t>(name)]; }
  uint64_t count(SpanName name) const { return count_[static_cast<size_t>(name)]; }

  // Chrome trace-event JSON of the kept spans (chrome://tracing, Perfetto).
  bool Write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      return false;
    }
    const uint64_t origin = kept_.empty() ? 0 : kept_.front().start_ns;
    std::fputs("{\"traceEvents\":[\n", f);
    for (size_t i = 0; i < kept_.size(); ++i) {
      const Span& s = kept_[i];
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,"
                   "\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%lld}}\n",
                   i == 0 ? "" : ",", SpanNameStr(s.name),
                   static_cast<double>(s.start_ns - origin) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                   s.parent == kNone ? -1LL : static_cast<long long>(s.parent));
    }
    std::fprintf(f, "],\"spansRecorded\":%llu,\"spansKept\":%zu}\n",
                 static_cast<unsigned long long>(TotalCount()), kept_.size());
    return std::fclose(f) == 0;
  }

 private:
  struct Span {
    SpanName name;
    uint32_t parent;
    uint64_t start_ns;
    uint64_t end_ns;
  };
  struct Open {
    SpanName name;
    uint32_t id;
    uint64_t start_ns;
  };

  uint64_t TotalCount() const {
    uint64_t n = 0;
    for (uint64_t c : count_) n += c;
    return n;
  }

  size_t keep_;
  std::vector<Span> kept_;
  std::vector<Open> open_;
  std::array<uint64_t, static_cast<size_t>(SpanName::kCount)> total_ns_{};
  std::array<uint64_t, static_cast<size_t>(SpanName::kCount)> count_{};
};

// Span around a scope; a null tracer records nothing (the untraced runs).
class Scope {
 public:
  Scope(Tracer* tracer, SpanName name) : tracer_(tracer) {
    if (tracer_ != nullptr) tracer_->Begin(name);
  }
  ~Scope() {
    if (tracer_ != nullptr) tracer_->End();
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
};

// Nearest-rank percentile (q in [0, 1]) of `values`; 0 for an empty set.
template <typename T>
double Percentile(std::vector<T> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  size_t rank = static_cast<size_t>(q * static_cast<double>(values.size() - 1) + 0.5);
  std::nth_element(values.begin(), values.begin() + static_cast<long>(rank), values.end());
  return static_cast<double>(values[rank]);
}

}  // namespace tockbench

#endif  // TOCKBENCH_SPANS_H_
