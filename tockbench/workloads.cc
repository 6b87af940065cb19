#include "workloads.h"

#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <type_traits>

namespace tockbench {
namespace {

using tock::SimBoard;

uint64_t Mix(uint64_t x) {  // splitmix64 finalizer
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

// Independent draws from the workload seed: one stream per `salt`, indexed by
// board. Every input that varies with the seed comes from here.
enum Salt : uint64_t { kBoardRng = 1, kLinkFaults, kSampler, kStagger };
uint64_t Draw(uint64_t seed, Salt salt, size_t index = 0) {
  return Mix(Mix(seed ^ (salt << 56)) + index);
}

// syscall_storm: a synchronous syscall loop — LED toggle command, a 2-byte
// read-only allow swapped between two buffers on the radio driver, and a
// yield-no-wait — about 9 user instructions per trap.
std::string StormApp(int led) {
  char buf[768];
  std::snprintf(buf, sizeof(buf), R"(
_start:
    mv s0, a0              # ram base: two 2-byte allow buffers
    mv s1, a0
loop:
    # command(led, 3 = toggle, led index)
    li a0, 2
    li a1, 3
    li a2, %d
    li a3, 0
    li a4, 2
    ecall
    # allow_ro(radio, 0, buf, 2), alternating buffers
    li a0, 0x30001
    li a1, 0
    mv a2, s1
    li a3, 2
    li a4, 4
    ecall
    xori s1, s1, 2
    # yield-no-wait
    li a0, 0
    li a4, 0
    ecall
    j loop
)",
                led);
  return buf;
}

// syscall_storm: the asynchronous sampler — command + yield-wait-for + upcall
// for the temperature, then a sleep through the virtual alarm.
std::string SamplerApp(int interval) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), R"(
_start:
loop:
    call temp_read_sync
    li a0, %d
    call sleep_ticks
    j loop
)",
                interval);
  return buf;
}

// beacon_fleet: the tools/fleet default deployment's three apps. A beacon
// first sleeps `stagger` ticks so the fleet's transmissions interleave.
std::string BeaconApp(int node_id, int stagger) {
  char buf[1024];
  std::snprintf(buf, sizeof(buf), R"(
_start:
    mv s0, a0
    li s1, 0
    li a0, %d
    call sleep_ticks
loop:
    li t0, %d
    sb t0, 0(s0)
    sb s1, 1(s0)
    li a0, 0x30001
    li a1, 0
    mv a2, s0
    li a3, 2
    li a4, 4
    ecall
    li a0, 0x30001
    li a1, 1
    li a2, 0xFFFF
    li a3, 2
    li a4, 2
    ecall
    li a0, 2
    li a1, 0x30001
    li a2, 0
    li a4, 0
    ecall
    addi s1, s1, 1
    andi s1, s1, 255
    li a0, 200000
    call sleep_ticks
    j loop
)",
                stagger, node_id);
  return buf;
}

const char* kListenerApp = R"(
_start:
    mv s0, a0
    li a0, 0x30001
    li a1, 1
    addi a2, s0, 64
    li a3, 8
    li a4, 3
    ecall
    li a0, 0x30001
    li a1, 2
    li a2, 0
    li a3, 0
    li a4, 2
    ecall
loop:
    li a0, 2
    li a1, 0x30001
    li a2, 1
    li a4, 0
    ecall
    lw t0, 32(s0)
    addi t0, t0, 1
    sw t0, 32(s0)
    j loop
)";

const char* kComputeApp = R"(
_start:
    li s0, 0
    li s1, 1
    li s2, 0x1234
loop:
    add s0, s0, s1
    xor s3, s0, s2
    slli s4, s3, 3
    srli s5, s3, 5
    or s6, s4, s5
    sub s7, s6, s0
    sltu s8, s0, s7
    andi s9, s7, 255
    add s2, s2, s8
    j loop
)";

// ota_lossy: the subscribers' baseline app, and the update the gateway pushes
// (padded to ~8.8 KiB signed, 69 chunks).
const char* kSleeperApp = R"(
_start:
loop:
    li a0, 50000
    call sleep_ticks
    j loop
)";

const char* kUpdateApp = R"(
_start:
loop:
    li a0, 100000
    call sleep_ticks
    j loop
pad:
    .space 8192
)";

tock::AppSpec Spec(const char* name, std::string source, bool runtime = true) {
  tock::AppSpec spec;
  spec.name = name;
  spec.source = std::move(source);
  spec.include_runtime = runtime;
  return spec;
}

bool Install(SimBoard& board, const tock::AppSpec& spec, Tracer* tracer, std::string* error) {
  Scope span(tracer, SpanName::kImageBuild);
  if (board.installer().Install(spec) == 0) {
    *error = spec.name + ": " + board.installer().error();
    return false;
  }
  return true;
}

std::unique_ptr<SimBoard> Construct(const tock::BoardConfig& config, Tracer* tracer) {
  Scope span(tracer, SpanName::kConstruct);
  return std::make_unique<SimBoard>(config);
}

int Boot(SimBoard& board, Tracer* tracer) {
  Scope span(tracer, SpanName::kBoot);
  return board.Boot();
}

std::unique_ptr<Deployment> SetupStorm(const Params& params, Tracer* tracer,
                                       std::string* error) {
  auto dep = std::make_unique<Deployment>();
  tock::BoardConfig config;
  config.rng_seed = static_cast<uint32_t>(Draw(params.seed, kBoardRng));
  config.allow_scheduler_env = false;
  dep->boards.push_back(Construct(config, tracer));
  SimBoard& board = *dep->boards.front();
  const int interval = 20000 + static_cast<int>(Draw(params.seed, kSampler) % 20001);
  if (!Install(board, Spec("storm0", StormApp(0), false), tracer, error) ||
      !Install(board, Spec("storm1", StormApp(1), false), tracer, error) ||
      !Install(board, Spec("sampler", SamplerApp(interval)), tracer, error)) {
    return nullptr;
  }
  if (Boot(board, tracer) != 3) {
    *error = "boot loaded fewer than 3 processes";
    return nullptr;
  }
  return dep;
}

std::unique_ptr<Deployment> SetupFleet(const Params& params, unsigned threads, Tracer* tracer,
                                       std::string* error) {
  const bool ota = params.workload == Workload::kOtaLossy;
  auto dep = std::make_unique<Deployment>();
  tock::FleetConfig fleet_config;
  fleet_config.threads = threads;
  fleet_config.restart_wedged = false;
  if (ota) {
    fleet_config.link_faults.seed = Draw(params.seed, kLinkFaults);
    fleet_config.link_faults.drop_permille = 100;
    fleet_config.link_faults.duplicate_permille = 20;
    fleet_config.link_faults.corrupt_permille = 10;
  }
  dep->fleet = std::make_unique<tock::Fleet>(fleet_config);

  if (params.telemetry) {
    dep->telemetry = std::make_unique<tock::TelemetryRegion>();
    tock::TelemetryRegion::Options options;
    options.name = params.out_dir + "/telemetry-" + std::to_string(::getpid());
    options.board_count = params.boards;
    if (!dep->telemetry->Create(options, tock::TelemetryConfig{}, error)) {
      *error = "telemetry region: " + *error;
      return nullptr;
    }
  }

  // One fleet-shared flash base holds the baseline app every board but the
  // gateway adopts: compute on beacon_fleet, the sleeper on ota_lossy.
  auto shared = std::make_shared<std::vector<uint8_t>>(tock::MemoryMap::kFlashSize,
                                                       uint8_t{0xFF});
  uint32_t shared_next = SimBoard::kAppFlashBase;
  {
    Scope span(tracer, SpanName::kImageBuild);
    tock::AppSpec base = ota ? Spec("sleeper", kSleeperApp) : Spec("compute", kComputeApp, false);
    std::vector<uint8_t> image =
        tock::BuildAppImage(base, shared_next, SimBoard::kDeviceKey, error);
    if (image.empty() || shared_next + image.size() > SimBoard::kAppFlashEnd) {
      *error = "baseline image: " + *error;
      return nullptr;
    }
    std::copy(image.begin(), image.end(), shared->begin() + shared_next);
    shared_next += static_cast<uint32_t>(image.size());
  }
  const std::shared_ptr<const std::vector<uint8_t>> shared_base = shared;

  static constexpr tock::SchedulerPolicy kPolicies[] = {
      tock::SchedulerPolicy::kRoundRobin,
      tock::SchedulerPolicy::kPriority,
      tock::SchedulerPolicy::kMlfq,
  };
  for (size_t i = 0; i < params.boards; ++i) {
    tock::BoardConfig config;
    config.rng_seed = static_cast<uint32_t>(Draw(params.seed, kBoardRng, i));
    config.radio_addr = static_cast<uint16_t>(i + 1);
    config.medium = &dep->fleet->medium();
    config.kernel.scheduler.policy = kPolicies[i % 3];
    config.allow_scheduler_env = false;
    if (ota) {
      config.ota.role = i == 0 ? tock::OtaRole::kGateway : tock::OtaRole::kSubscriber;
    }
    if (dep->telemetry) {
      config.telemetry = dep->telemetry->board(i);
    }
    dep->boards.push_back(Construct(config, tracer));
    SimBoard& board = *dep->boards.back();
    int expected = 0;
    if (!ota || i != 0) {
      board.mcu().bus().AdoptFlashBase(shared_base);
      board.installer().set_next_addr(shared_next);
      expected = 1;
    }
    if (!ota) {
      const int node = static_cast<int>(i + 1);
      const int stagger = node * 10000 + static_cast<int>(Draw(params.seed, kStagger, i) % 10000);
      if (!Install(board, Spec("beacon", BeaconApp(node, stagger)), tracer, error) ||
          !Install(board, Spec("listener", kListenerApp), tracer, error)) {
        return nullptr;
      }
      expected += 2;
    }
    if (Boot(board, tracer) != expected) {
      *error = "board " + std::to_string(i) + ": boot loaded too few processes";
      return nullptr;
    }
    dep->fleet->AddBoard(&board);
  }
  dep->fleet->AlignClocks();

  if (ota) {
    // Every subscriber resolves the same staging address, so one signed
    // (position-dependent) image serves them all.
    std::vector<uint8_t> image;
    {
      Scope span(tracer, SpanName::kImageBuild);
      tock::AppSpec update = Spec("update", kUpdateApp);
      update.sign = true;
      image = tock::BuildAppImage(update, dep->boards[1]->ota_staging_addr(),
                                  SimBoard::kDeviceKey, error);
    }
    if (image.empty()) {
      *error = "update image: " + *error;
      return nullptr;
    }
    std::vector<uint16_t> subscribers;
    for (size_t i = 1; i < params.boards; ++i) {
      subscribers.push_back(static_cast<uint16_t>(i + 1));
    }
    dep->boards[0]->ota_gateway().Configure(std::move(image), subscribers);
    dep->boards[0]->ota_gateway().StartPush();
  }
  return dep;
}

// Fleet::StepBoard through its public calls, one span per call.
void TracedStepBoard(SimBoard& board, uint64_t target, Tracer& tracer) {
  tracer.Begin(SpanName::kPumpInbox);
  board.radio_hw().PumpInbox();
  tracer.End();
  if (board.mcu().CyclesNow() >= target) {
    return;
  }
  tracer.Begin(SpanName::kIdleFastForward);
  const bool skipped = board.radio_hw().InboxEmpty() &&
                       board.kernel().TryIdleFastForward(target, board.main_cap());
  tracer.End();
  if (!skipped) {
    tracer.Begin(SpanName::kMainLoop);
    board.kernel().MainLoop(target, board.main_cap());
    tracer.End();
    if (board.mcu().CyclesNow() < target) {
      board.mcu().clock().Advance(target - board.mcu().CyclesNow());
    }
  }
  tracer.Begin(SpanName::kEpochBarrier);
  board.OnEpochBarrier();
  tracer.End();
}

// The one-thread path of Fleet::Run with the same epoch boundaries. Supervision
// is skipped: with restart_wedged off it has no simulated effect.
void TracedFleetRun(Deployment& dep, uint64_t cycles, Tracer& tracer, FleetTrace* trace) {
  const uint64_t slice = dep.fleet->EffectiveSlice();
  std::vector<uint64_t> targets(dep.boards.size());
  uint64_t start = UINT64_MAX;
  uint64_t end = 0;
  for (size_t i = 0; i < dep.boards.size(); ++i) {
    const uint64_t now = dep.boards[i]->mcu().CyclesNow();
    targets[i] = now + cycles;
    start = std::min(start, now);
    end = std::max(end, targets[i]);
  }
  for (uint64_t t = start; t < end;) {
    const uint64_t epoch_end = std::min(t + slice, end);
    tracer.Begin(SpanName::kEpoch);
    uint64_t slowest = 0;
    for (size_t i = 0; i < dep.boards.size(); ++i) {
      tracer.Begin(SpanName::kStep);
      TracedStepBoard(*dep.boards[i], std::min(epoch_end, targets[i]), tracer);
      const uint64_t ns = tracer.End();
      trace->step_ns.push_back(static_cast<uint32_t>(std::min<uint64_t>(ns, UINT32_MAX)));
      slowest = std::max(slowest, ns);
    }
    const uint64_t ns = tracer.End();
    trace->epoch_ns.push_back(static_cast<uint32_t>(std::min<uint64_t>(ns, UINT32_MAX)));
    trace->slowest_step_ns += slowest;
    t = epoch_end;
  }
}

void StepFleet(Deployment& dep, uint64_t cycles, Tracer* tracer, FleetTrace* trace) {
  if (tracer == nullptr) {
    dep.fleet->Run(cycles);
  } else {
    TracedFleetRun(dep, cycles, *tracer, trace);
  }
}

template <typename T>
void AppendWords(const T& value, std::vector<uint64_t>* out) {
  static_assert(std::has_unique_object_representations_v<T> && sizeof(T) % sizeof(uint64_t) == 0,
                "fingerprinted words must hold no padding");
  uint64_t words[sizeof(T) / sizeof(uint64_t)];
  std::memcpy(words, &value, sizeof(T));
  out->insert(out->end(), std::begin(words), std::end(words));
}

}  // namespace

bool ParseWorkload(const std::string& name, Workload* out) {
  for (Workload w : {Workload::kSyscallStorm, Workload::kBeaconFleet, Workload::kOtaLossy}) {
    if (name == WorkloadName(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

const char* WorkloadName(Workload workload) {
  switch (workload) {
    case Workload::kSyscallStorm:
      return "syscall_storm";
    case Workload::kBeaconFleet:
      return "beacon_fleet";
    case Workload::kOtaLossy:
      return "ota_lossy";
  }
  return "?";
}

Params MakeParams(Workload workload, uint64_t seed, bool tiny) {
  Params p;
  p.workload = workload;
  p.seed = seed;
  switch (workload) {
    case Workload::kSyscallStorm:
      p.span_cycles = tiny ? 2'000'000 : 200'000'000;
      p.chunk_cycles = tiny ? 500'000 : 10'000'000;
      break;
    case Workload::kBeaconFleet:
      p.boards = tiny ? 8 : 64;
      p.threads = 3;
      p.span_cycles = tiny ? 1'000'000 : 10'000'000;
      p.chunk_cycles = tiny ? 250'000 : 500'000;
      p.telemetry = true;
      break;
    case Workload::kOtaLossy:
      p.boards = tiny ? 8 : 64;
      p.threads = 3;
      p.chunk_cycles = 1'000'000;
      p.budget_cycles = 4'000'000'000;
      break;
  }
  return p;
}

std::unique_ptr<Deployment> Setup(const Params& params, unsigned threads, Tracer* tracer,
                                  std::string* error) {
  Scope span(tracer, SpanName::kSetup);
  if (params.workload == Workload::kSyscallStorm) {
    return SetupStorm(params, tracer, error);
  }
  return SetupFleet(params, threads, tracer, error);
}

uint64_t RunSpan(Deployment& dep, const Params& params, Tracer* tracer, FleetTrace* trace,
                 HostProbe* probe, ChunkTimes* times) {
  Scope span(tracer, SpanName::kRun);
  const bool ota = params.workload == Workload::kOtaLossy;
  const uint64_t limit = ota ? params.budget_cycles : params.span_cycles;
  const tock::OtaGateway& gateway = dep.boards.front()->ota_gateway();
  uint64_t ran = 0;
  while (ran < limit && !(ota && gateway.Done())) {
    const uint64_t step = std::min(params.chunk_cycles, limit - ran);
    const uint64_t start = probe != nullptr ? ThreadCpuNs() : 0;
    if (params.workload != Workload::kSyscallStorm) {
      StepFleet(dep, step, tracer, trace);
    } else if (tracer == nullptr) {
      dep.boards.front()->Run(step);
    } else {
      SimBoard& board = *dep.boards.front();
      Scope main_loop(tracer, SpanName::kMainLoop);
      board.kernel().MainLoop(board.mcu().CyclesNow() + step, board.main_cap());
    }
    if (probe != nullptr) {
      times->span_ns += ThreadCpuNs() - start;
      times->probe_s += probe->Run();
      ++times->probes;
    }
    ran += step;
  }
  return ran;
}

std::vector<uint64_t> BoardFingerprint(SimBoard& board) {
  std::vector<uint64_t> f = {board.mcu().CyclesNow(), board.kernel().instructions_retired(),
                             board.mcu().active_cycles(), board.mcu().sleep_cycles()};
  const tock::KernelStats& stats = board.kernel().stats();
  for (uint32_t id = 0; id < static_cast<uint32_t>(tock::StatId::kNumStats); ++id) {
    const auto stat = static_cast<tock::StatId>(id);
    if (!tock::StatIsHostOnly(stat)) {
      f.push_back(tock::StatValue(stats, stat));
    }
  }
  tock::Radio& radio = board.radio_hw();
  const tock::LinkFaultCounters faults = radio.fault_counters();
  f.insert(f.end(), {radio.packets_sent(), radio.packets_received(), radio.rx_overruns(),
                     faults.dropped, faults.duplicated, faults.reordered, faults.corrupted});
  for (size_t i = 0; i < tock::Kernel::kMaxProcesses; ++i) {
    const tock::Process* p = board.kernel().process(i);
    f.insert(f.end(), {static_cast<uint64_t>(p->state), p->syscall_count, p->upcalls_delivered,
                       p->restart_count});
  }
  const tock::OtaSubscriber& sub = board.ota_subscriber();
  f.push_back(static_cast<uint64_t>(sub.state()));
  f.push_back(sub.last_status());
  AppendWords(sub.stats(), &f);
  AppendWords(board.ota_gateway().stats(), &f);
  return f;
}

uint64_t Digest(const std::vector<std::vector<uint64_t>>& fingerprints) {
  uint64_t h = 0xCBF29CE484222325ull;  // FNV-1a over every word
  for (const std::vector<uint64_t>& board : fingerprints) {
    for (uint64_t word : board) {
      for (int b = 0; b < 8; ++b) {
        h = (h ^ ((word >> (8 * b)) & 0xFF)) * 0x100000001B3ull;
      }
    }
    h = (h ^ 0xFF) * 0x100000001B3ull;
  }
  return h;
}

bool BoardHealthy(const Params& params, size_t index, SimBoard& board, std::string* why) {
  const tock::KernelStats& stats = board.kernel().stats();
  const size_t live = board.kernel().NumLiveProcesses();
  if (stats.process_faults != 0) {
    *why = "a process faulted";
    return false;
  }
  switch (params.workload) {
    case Workload::kSyscallStorm:
      if (live != 3 || stats.SyscallsTotal() == 0 || stats.upcalls_delivered == 0) {
        *why = "storm processes not all live, trapping and receiving upcalls";
        return false;
      }
      return true;
    case Workload::kBeaconFleet:
      if (live != 3 || board.radio_hw().packets_sent() == 0 ||
          board.radio_hw().packets_received() == 0) {
        *why = "beacon board not live, sending and hearing peers";
        return false;
      }
      return true;
    case Workload::kOtaLossy:
      if (index != 0 && live == 0) {
        *why = "subscriber has no live process";
        return false;
      }
      return true;
  }
  return false;
}

TapThread::TapThread(tock::TelemetryRegion& region) {
  std::string error;
  if (!tap_.Attach(region.base(), region.size(), &error)) {
    std::fprintf(stderr, "tap: %s\n", error.c_str());
    return;
  }
  thread_ = std::thread([this] {
    while (!stop_.load(std::memory_order_acquire)) {
      DrainAll();
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    DrainAll();
  });
}

TapThread::~TapThread() { Stop(); }

void TapThread::Stop() {
  stop_.store(true, std::memory_order_release);
  if (thread_.joinable()) {
    thread_.join();
  }
}

void TapThread::DrainAll() {
  const uint64_t start = NowNs();
  uint64_t words[tock::kTelemetryRecordWords];
  for (size_t i = 0; i < tap_.board_count(); ++i) {
    tock::SpscReader* reader = tap_.events(i);
    uint64_t gap = 0;
    while (reader->PollNext(words, &gap) == tock::SpscReader::Poll::kRecord) {
      // Consumed only: what matters is the reader's lost() tally and the time.
    }
  }
  drain_ns_.push_back(static_cast<uint32_t>(std::min<uint64_t>(NowNs() - start, UINT32_MAX)));
}

uint64_t TapThread::lost() {
  uint64_t lost = 0;
  for (size_t i = 0; i < tap_.board_count(); ++i) {
    lost += tap_.events(i)->lost();
  }
  return lost;
}

}  // namespace tockbench
