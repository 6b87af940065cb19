// Fleet runtime tests (board/fleet.h): the sharded epoch engine must produce
// bit-identical per-board results for any host thread count, the mailbox radio
// must produce identical delivery traces for any stepping slice and board step
// order, dozing boards must match a plain per-pass stepper, and the supervisor
// must revive wedged boards.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "board/fleet.h"
#include "board/sim_board.h"
#include "kernel/telemetry.h"

namespace tock {
namespace {

// Telemetry beacon: send [node, seq] to `dst` (broadcast by default) on a duty
// cycle, staggered per node.
std::string BeaconApp(int node_id, int dst = 0xFFFF) {
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
    # command(radio, 1 = tx, dst, len=2)
    li a0, 0x30001
    li a1, 1
    li a2, %d
    li a3, 2
    li a4, 2
    ecall
    # yield-wait-for(radio, 0 = tx done)
    li a0, 2
    li a1, 0x30001
    li a2, 0
    li a4, 0
    ecall
    addi s1, s1, 1
    li a0, 60000
    call sleep_ticks
    j loop
)",
                node_id * 7000, node_id, dst);
  return buf;
}

// Telemetry sink: listen forever, tally packets at ram+32.
const char* kListenerApp = R"(
_start:
    mv s0, a0
    li a0, 0x30001
    li a1, 1
    addi a2, s0, 64
    li a3, 8
    li a4, 3
    ecall
    # command(radio, 2 = listen)
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

// An 8-board deployment with heterogeneous seeds, addresses, and scheduler
// policies, every board beaconing to and listening for all the others.
struct TestFleet {
  explicit TestFleet(unsigned threads, uint64_t slice = 20'000) {
    FleetConfig config;
    config.threads = threads;
    config.slice = slice;
    fleet = std::make_unique<Fleet>(config);
    static constexpr SchedulerPolicy kRotation[] = {
        SchedulerPolicy::kRoundRobin, SchedulerPolicy::kPriority, SchedulerPolicy::kMlfq};
    for (size_t i = 0; i < 8; ++i) {
      BoardConfig bc;
      bc.rng_seed = 0xBEEF + static_cast<uint32_t>(i);
      bc.radio_addr = static_cast<uint16_t>(i + 1);
      bc.medium = &fleet->medium();
      bc.kernel.scheduler.policy = kRotation[i % 3];
      bc.allow_scheduler_env = false;
      auto board = std::make_unique<SimBoard>(bc);
      board->radio_hw().EnableDeliveryLog();
      AppSpec beacon;
      beacon.name = "beacon";
      beacon.source = BeaconApp(static_cast<int>(i + 1));
      AppSpec listener;
      listener.name = "listener";
      listener.source = kListenerApp;
      EXPECT_NE(board->installer().Install(beacon), 0u) << board->installer().error();
      EXPECT_NE(board->installer().Install(listener), 0u) << board->installer().error();
      EXPECT_EQ(board->Boot(), 2);
      fleet->AddBoard(board.get());
      boards.push_back(std::move(board));
    }
    fleet->AlignClocks();
  }

  // Everything observable about one board, as one comparable string.
  std::string Fingerprint(size_t i) {
    SimBoard& board = *boards[i];
    std::string out;
    char line[160];
    std::snprintf(line, sizeof(line), "cycles=%llu insns=%llu tx=%llu rx=%llu ovr=%llu\n",
                  static_cast<unsigned long long>(board.mcu().CyclesNow()),
                  static_cast<unsigned long long>(board.kernel().instructions_retired()),
                  static_cast<unsigned long long>(board.radio_hw().packets_sent()),
                  static_cast<unsigned long long>(board.radio_hw().packets_received()),
                  static_cast<unsigned long long>(board.radio_hw().rx_overruns()));
    out += line;
    board.kernel().trace().DumpStats(out);
    board.kernel().trace().DumpTrace(out);
    for (const RadioDeliveryRecord& r : board.radio_hw().delivery_log()) {
      std::snprintf(line, sizeof(line), "deliver cycle=%llu src=%u dst=%u len=%u sum=%u ovr=%d\n",
                    static_cast<unsigned long long>(r.cycle), r.src, r.dst, r.len,
                    r.payload_sum, r.overrun ? 1 : 0);
      out += line;
    }
    return out;
  }

  std::unique_ptr<Fleet> fleet;
  std::vector<std::unique_ptr<SimBoard>> boards;
};

// The tentpole guarantee: an 8-board fleet stepped by 1 host thread and by 4 host
// threads produces bit-identical per-board kernel stats, trace rings, and radio
// delivery logs. (Acceptance criterion: parallelism must not leak into results.)
TEST(FleetDeterminism, ThreadCountInvariant) {
  TestFleet solo(1);
  TestFleet quad(4);
  solo.fleet->Run(600'000);
  quad.fleet->Run(600'000);

  uint64_t total_rx = 0;
  for (size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(solo.Fingerprint(i), quad.Fingerprint(i)) << "board " << i;
    total_rx += solo.boards[i]->radio_hw().packets_received();
  }
  // The run must actually exercise cross-board delivery to prove anything.
  EXPECT_GT(total_rx, 0u);

  FleetStats a = solo.fleet->Stats();
  FleetStats b = quad.fleet->Stats();
  EXPECT_EQ(a.instructions, b.instructions);
  EXPECT_EQ(a.packets_received, b.packets_received);
  EXPECT_EQ(a.aggregate.context_switches, b.aggregate.context_switches);
  EXPECT_EQ(a.boards_live, 8u);
}

// Radio arrival times are computed on the shared timeline at transmit time, so
// the delivery trace cannot depend on the stepping slice: a 1k-cycle slice and a
// 20k-cycle slice (both clamped to the medium lookahead) must land every frame
// at the same cycle with the same payload.
TEST(FleetDeterminism, DeliveryTraceSliceInvariant) {
  TestFleet fine(1, /*slice=*/1'000);
  TestFleet coarse(1, /*slice=*/20'000);
  fine.fleet->Run(600'000);
  coarse.fleet->Run(600'000);

  uint64_t total = 0;
  for (size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(fine.boards[i]->radio_hw().delivery_log(),
              coarse.boards[i]->radio_hw().delivery_log())
        << "board " << i;
    total += fine.boards[i]->radio_hw().delivery_log().size();
  }
  EXPECT_GT(total, 0u);
}

// Nor may the order boards are stepped within an epoch matter: registering the
// boards with the fleet in reverse order changes the step order but not one
// delivered byte. (Construction order — and so radio attach order — stays fixed;
// only the step schedule moves.)
TEST(FleetDeterminism, DeliveryTraceStepOrderInvariant) {
  TestFleet forward(1);
  forward.fleet->Run(600'000);

  // Same deployment, boards handed to the fleet back-to-front.
  TestFleet shuffled(1);
  FleetConfig config;
  config.medium = &shuffled.fleet->medium();
  Fleet reordered(config);
  for (size_t i = shuffled.boards.size(); i-- > 0;) {
    reordered.AddBoard(shuffled.boards[i].get());
  }
  reordered.AlignClocks();
  reordered.Run(600'000);

  for (size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(forward.boards[i]->radio_hw().delivery_log(),
              shuffled.boards[i]->radio_hw().delivery_log())
        << "board " << i;
  }
}

// CPU-bound spinner for the skewed-fleet tests: one hot board that never
// sleeps, surrounded by duty-cycled beacons.
const char* kSpinApp = R"(
_start:
    li s0, 0
    li s1, 1
loop:
    add s0, s0, s1
    xor s2, s0, s1
    slli s3, s2, 3
    j loop
)";

// A deliberately imbalanced deployment: board 0 runs a hot spin loop (busy all
// epoch, every epoch) while the rest duty-cycle — beacon, then sleep far past
// the epoch length. The thread whose shard holds board 0 does almost all the
// work and idle-skip fast-forwards the rest; neither the sharding nor the skip
// may change one observable byte.
struct SkewedFleet {
  static constexpr size_t kBoards = 32;  // 1 hot + 31 duty-cycled

  SkewedFleet(unsigned threads, bool idle_skip) {
    FleetConfig config;
    config.threads = threads;
    config.idle_skip = idle_skip;
    fleet = std::make_unique<Fleet>(config);
    for (size_t i = 0; i < kBoards; ++i) {
      BoardConfig bc;
      bc.rng_seed = 0xFEED + static_cast<uint32_t>(i);
      bc.radio_addr = static_cast<uint16_t>(i + 1);
      bc.medium = &fleet->medium();
      auto board = std::make_unique<SimBoard>(bc);
      board->radio_hw().EnableDeliveryLog();
      int expected = 0;
      if (i == 0) {
        AppSpec spin;
        spin.name = "spin";
        spin.source = kSpinApp;
        spin.include_runtime = false;
        AppSpec listener;
        listener.name = "listener";
        listener.source = kListenerApp;
        EXPECT_NE(board->installer().Install(spin), 0u) << board->installer().error();
        EXPECT_NE(board->installer().Install(listener), 0u)
            << board->installer().error();
        expected = 2;
      } else {
        AppSpec beacon;
        beacon.name = "beacon";
        beacon.source = BeaconApp(static_cast<int>(i + 1));
        EXPECT_NE(board->installer().Install(beacon), 0u) << board->installer().error();
        expected = 1;
      }
      EXPECT_EQ(board->Boot(), expected);
      fleet->AddBoard(board.get());
      boards.push_back(std::move(board));
    }
    fleet->AlignClocks();
  }

  std::string Fingerprint(size_t i) {
    SimBoard& board = *boards[i];
    std::string out;
    char line[160];
    std::snprintf(line, sizeof(line), "cycles=%llu insns=%llu tx=%llu rx=%llu\n",
                  static_cast<unsigned long long>(board.mcu().CyclesNow()),
                  static_cast<unsigned long long>(board.kernel().instructions_retired()),
                  static_cast<unsigned long long>(board.radio_hw().packets_sent()),
                  static_cast<unsigned long long>(board.radio_hw().packets_received()));
    out += line;
    board.kernel().trace().DumpStats(out);
    board.kernel().trace().DumpTrace(out);
    for (const RadioDeliveryRecord& r : board.radio_hw().delivery_log()) {
      std::snprintf(line, sizeof(line), "deliver cycle=%llu src=%u len=%u sum=%u\n",
                    static_cast<unsigned long long>(r.cycle), r.src, r.len,
                    r.payload_sum);
      out += line;
    }
    return out;
  }

  std::unique_ptr<Fleet> fleet;
  std::vector<std::unique_ptr<SimBoard>> boards;
};

// Static sharding must be invisible in the results even when one shard holds
// all the work: the skewed fleet stepped by 1 thread and by 4 threads produces
// bit-identical per-board fingerprints (stats, trace rings, delivery logs).
// (The name dates from the work-stealing scheduler this test once covered.)
TEST(FleetDeterminism, WorkStealingSkewedFleetThreadCountInvariant) {
  SkewedFleet solo(1, /*idle_skip=*/true);
  SkewedFleet quad(4, /*idle_skip=*/true);
  solo.fleet->Run(300'000);
  quad.fleet->Run(300'000);

  uint64_t total_rx = 0;
  for (size_t i = 0; i < SkewedFleet::kBoards; ++i) {
    EXPECT_EQ(solo.Fingerprint(i), quad.Fingerprint(i)) << "board " << i;
    total_rx += solo.boards[i]->radio_hw().packets_received();
  }
  EXPECT_GT(total_rx, 0u);
}

// Idle-board fast-forward must be equally invisible: the same skewed fleet with
// the skip enabled and disabled produces identical fingerprints, and the
// enabled run actually took the shortcut (the host-only fleet.idle_skips
// counter — excluded from the fingerprint's stat dump — is the only trace).
TEST(FleetDeterminism, IdleSkipInvariantAndActuallySkips) {
  SkewedFleet skipping(1, /*idle_skip=*/true);
  SkewedFleet stepping(1, /*idle_skip=*/false);
  skipping.fleet->Run(300'000);
  stepping.fleet->Run(300'000);

  for (size_t i = 0; i < SkewedFleet::kBoards; ++i) {
    EXPECT_EQ(skipping.Fingerprint(i), stepping.Fingerprint(i)) << "board " << i;
  }
  if (KernelConfig::trace_enabled) {
    EXPECT_GT(skipping.fleet->Stats().aggregate.fleet_idle_skips, 0u);
    EXPECT_EQ(stepping.fleet->Stats().aggregate.fleet_idle_skips, 0u);
  }
}

// ---- Dozing boards -----------------------------------------------------------
//
// Fleet::Run lets a provably idle board doze and replays its deferred idle
// passes in one batch (Kernel::ReplayIdlePasses). The oracle here is a plain
// stepper that drives every board through the public per-pass calls on the same
// epoch grid, one pass per board per epoch, as tockbench's TracedFleetRun does.
// Fleet::Run must match it byte for byte at any thread count, with idle skipping
// on or off.

// Sleeps in long stretches, so its board dozes for many epochs at a time.
const char* kSleeperApp = R"(
_start:
loop:
    li a0, 150000
    call sleep_ticks
    j loop
)";

// Computes past its timeslice (MLFQ demotes it), then sleeps across several
// boost periods, so boosts fall inside the idle passes its board defers.
const char* kBurstApp = R"(
_start:
    li s0, 0
loop:
    li t1, 3000
spin:
    addi s0, s0, 1
    addi t1, t1, -1
    bnez t1, spin
    li a0, 90000
    call sleep_ticks
    j loop
)";

// Removes its files when destroyed; declared before the fleets that write them.
// Prefers tmpfs: a trace-export flush renames over its previous artifact, which
// a disk-backed /tmp may flush to the device each time.
struct TempFiles {
  ~TempFiles() {
    for (const std::string& path : paths) {
      std::remove(path.c_str());
      std::remove((path + ".tmp").c_str());
    }
  }
  std::string Add(const std::string& tag) {
    const char* dir = access("/dev/shm", W_OK) == 0 ? "/dev/shm" : "/tmp";
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s/tock_fleet_doze_%s_%d", dir, tag.c_str(),
                  static_cast<int>(getpid()));
    paths.emplace_back(buf);
    return paths.back();
  }
  std::vector<std::string> paths;
};

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

struct DozeOptions {
  bool align_clocks = true;  // false: every board starts on its own cycle
  bool observers = false;    // telemetry sink and trace-export flushing
};

// Six boards that exercise every way a doze ends:
//   0  beacon, unicast to board 2 (frames addressed to a dozing board)
//   1  beacon, unicast to board 5
//   2  listener + long sleeper: dozes until a frame lands in its mailbox
//   3  MLFQ burst app with a short boost period (boosts inside deferred passes)
//   4  long sleeper whose clock carries events exactly on epoch grid points,
//      each feeding the process console a command
//   5  listener only: no future event, so it wedges every epoch and never dozes
// No board broadcasts: board 4's console prints the host-only skip count, which
// a frame racing into its mailbox at more than one thread could move.
struct DozeFleet {
  static constexpr size_t kBoards = 6;
  static constexpr uint64_t kGridWakeEpochs[] = {3, 4, 17, 40, 41, 90};

  DozeFleet(const FleetConfig& config, const DozeOptions& options, TempFiles* files,
            const std::string& tag) {
    fleet = std::make_unique<Fleet>(config);
    if (options.observers) {
      telemetry_path = files->Add(tag + ".shm");
      TelemetryConfig tc;
      tc.snapshot_period_cycles = 30'000;
      region = std::make_unique<TelemetryRegion>();
      std::string error;
      EXPECT_TRUE(region->Create({telemetry_path, kBoards, 1024}, tc, &error)) << error;
    }
    for (size_t i = 0; i < kBoards; ++i) {
      BoardConfig bc;
      bc.rng_seed = 0xD0E5 + static_cast<uint32_t>(i);
      bc.radio_addr = static_cast<uint16_t>(i + 1);
      bc.medium = &fleet->medium();
      bc.allow_scheduler_env = false;
      if (i == 3) {
        bc.kernel.scheduler.policy = SchedulerPolicy::kMlfq;
        bc.kernel.scheduler.mlfq_boost_period_cycles = 20'000;
        bc.kernel.timeslice_cycles = 2'000;
      }
      if (options.observers) {
        bc.telemetry = region->board(i);
        bc.trace_export_path = files->Add(tag + "_board" + std::to_string(i) + ".json");
        trace_paths.push_back(bc.trace_export_path);
        bc.trace_export_flush_cycles = 100'000;
      }
      auto board = std::make_unique<SimBoard>(bc);
      board->radio_hw().EnableDeliveryLog();
      std::vector<AppSpec> apps;
      auto add = [&apps](const char* name, std::string source) {
        AppSpec app;
        app.name = name;
        app.source = std::move(source);
        apps.push_back(std::move(app));
      };
      switch (i) {
        case 0:
          add("beacon", BeaconApp(1, /*dst=*/3));
          break;
        case 1:
          add("beacon", BeaconApp(2, /*dst=*/6));
          break;
        case 2:
          add("listener", kListenerApp);
          add("sleeper", kSleeperApp);
          break;
        case 3:
          add("burst", kBurstApp);
          break;
        case 4:
          add("sleeper", kSleeperApp);
          break;
        default:
          add("listener", kListenerApp);
          break;
      }
      for (const AppSpec& app : apps) {
        EXPECT_NE(board->installer().Install(app), 0u) << board->installer().error();
      }
      EXPECT_EQ(board->Boot(), static_cast<int>(apps.size()));
      fleet->AddBoard(board.get());
      boards.push_back(std::move(board));
    }
    if (options.align_clocks) {
      fleet->AlignClocks();
    } else {
      for (size_t i = 0; i < kBoards; ++i) {
        boards[i]->mcu().clock().Advance(1 + 977 * i);
      }
    }
    uint64_t start = UINT64_MAX;
    for (const auto& board : boards) {
      start = std::min(start, board->mcu().CyclesNow());
    }
    SimBoard* waker = boards[4].get();
    for (uint64_t k : kGridWakeEpochs) {
      waker->mcu().clock().ScheduleAt(start + k * fleet->EffectiveSlice(), [waker] {
        waker->uart1_hw().InjectRx("stats\n");
      });
    }
  }

  // The oracle: Fleet::Run's epoch grid, one thread, every board stepped
  // through the public per-pass calls in every epoch. Without idle skipping
  // every pass runs the main loop; the process console's `stats` prints the
  // host-only skip count, so the reference must skip exactly when the fleet may.
  void ReferenceRun(uint64_t cycles, bool idle_skip) {
    const uint64_t slice = fleet->EffectiveSlice();
    std::vector<uint64_t> targets(kBoards);
    uint64_t start = UINT64_MAX;
    uint64_t end = 0;
    for (size_t i = 0; i < kBoards; ++i) {
      targets[i] = boards[i]->mcu().CyclesNow() + cycles;
      start = std::min(start, boards[i]->mcu().CyclesNow());
      end = std::max(end, targets[i]);
    }
    for (uint64_t t = start; t < end;) {
      const uint64_t epoch_end = std::min(t + slice, end);
      for (size_t i = 0; i < kBoards; ++i) {
        SimBoard& board = *boards[i];
        board.radio_hw().PumpInbox();
        const uint64_t target = std::min(epoch_end, targets[i]);
        if (board.mcu().CyclesNow() >= target) {
          continue;
        }
        if (!idle_skip || !board.radio_hw().InboxEmpty() ||
            !board.kernel().TryIdleFastForward(target, board.main_cap())) {
          board.kernel().MainLoop(target, board.main_cap());
          if (board.mcu().CyclesNow() < target) {
            board.mcu().clock().Advance(target - board.mcu().CyclesNow());
          }
        }
        board.OnEpochBarrier();
      }
      t = epoch_end;
    }
  }

  // Everything simulated about one board, plus the host-side artifacts its
  // epoch hook and trace sink wrote.
  std::string Fingerprint(size_t i) {
    SimBoard& board = *boards[i];
    Kernel& kernel = board.kernel();
    std::string out;
    char line[256];
    std::snprintf(line, sizeof(line),
                  "cycles=%llu insns=%llu active=%llu sleep=%llu transitions=%llu "
                  "wedged=%d tx=%llu rx=%llu ovr=%llu\n",
                  static_cast<unsigned long long>(board.mcu().CyclesNow()),
                  static_cast<unsigned long long>(kernel.instructions_retired()),
                  static_cast<unsigned long long>(board.mcu().active_cycles()),
                  static_cast<unsigned long long>(board.mcu().sleep_cycles()),
                  static_cast<unsigned long long>(board.mcu().sleep_transitions()),
                  board.mcu().wedged() ? 1 : 0,
                  static_cast<unsigned long long>(board.radio_hw().packets_sent()),
                  static_cast<unsigned long long>(board.radio_hw().packets_received()),
                  static_cast<unsigned long long>(board.radio_hw().rx_overruns()));
    out += line;
    kernel.trace().DumpStats(out);
    kernel.trace().DumpTrace(out);
    for (const RadioDeliveryRecord& r : board.radio_hw().delivery_log()) {
      std::snprintf(line, sizeof(line), "deliver cycle=%llu src=%u dst=%u len=%u sum=%u\n",
                    static_cast<unsigned long long>(r.cycle), r.src, r.dst, r.len,
                    r.payload_sum);
      out += line;
    }
    // The cycle-attribution span ring and a fully flushed snapshot of it.
    const CycleAccounting& acct = kernel.trace().accounting();
    std::snprintf(line, sizeof(line), "spans total=%llu\n",
                  static_cast<unsigned long long>(acct.spans().TotalRecorded()));
    out += line;
    acct.spans().ForEach([&](const CycleSpan& span) {
      std::snprintf(line, sizeof(line), "span %llu-%llu bucket=%d pid=%d\n",
                    static_cast<unsigned long long>(span.start),
                    static_cast<unsigned long long>(span.end), static_cast<int>(span.bucket),
                    static_cast<int>(span.pid));
      out += line;
    });
    const CycleAccounting::Snapshot snap = acct.Snap(board.mcu().CyclesNow());
    std::snprintf(line, sizeof(line), "snap anchor=%llu now=%llu capsule=%llu irq=%llu "
                  "idle=%llu kernel=%llu\n",
                  static_cast<unsigned long long>(snap.anchor),
                  static_cast<unsigned long long>(snap.now),
                  static_cast<unsigned long long>(snap.capsule),
                  static_cast<unsigned long long>(snap.irq),
                  static_cast<unsigned long long>(snap.idle),
                  static_cast<unsigned long long>(snap.kernel));
    out += line;
    for (size_t p = 0; p < CycleAccounting::kMaxProcs; ++p) {
      const ProcStats ps = kernel.GetProcStats(p);
      std::snprintf(line, sizeof(line), "proc %zu user=%llu service=%llu level=%llu "
                    "expirations=%llu\n",
                    p, static_cast<unsigned long long>(snap.user[p]),
                    static_cast<unsigned long long>(snap.service[p]),
                    static_cast<unsigned long long>(ps.queue_level),
                    static_cast<unsigned long long>(ps.timeslice_expirations));
      out += line;
    }
    if (kernel.scheduler_policy() == SchedulerPolicy::kMlfq) {
      std::snprintf(line, sizeof(line), "boosts=%llu\n",
                    static_cast<unsigned long long>(Boosts(i)));
      out += line;
    }
    out += "console:" + board.uart1_hw().output() + "\n";
    if (region != nullptr) {
      out += "telemetry " + std::to_string(board.telemetry()->events_published()) + "\n";
      TelemetryTap tap;
      std::string error;
      TelemetrySnapshot tsnap;
      if (tap.Attach(region->base(), region->size(), &error) && tap.ReadSnapshot(i, &tsnap)) {
        out += "snapshot seq=" + std::to_string(tsnap.seq) + " cycle=" +
               std::to_string(tsnap.cycle);
        // Host-only words (idle skips, engine and transport counters) may
        // differ between the legs; everything simulated may not.
        for (size_t w = 0; w < tsnap.stats.size(); ++w) {
          if (!StatIsHostOnly(static_cast<StatId>(w))) {
            out += " " + std::to_string(tsnap.stats[w]);
          }
        }
        for (const auto& row : tsnap.procs) {
          for (uint64_t word : row) {
            out += " " + std::to_string(word);
          }
        }
        out += "\n";
      } else {
        out += "snapshot unreadable: " + error + "\n";
      }
      out += "export:" + ReadFile(trace_paths[i]) + "\n";
    }
    return out;
  }

  uint64_t Boosts(size_t i) {
    return static_cast<const MlfqScheduler&>(boards[i]->kernel().scheduler()).boosts();
  }

  std::string telemetry_path;
  std::vector<std::string> trace_paths;
  std::unique_ptr<TelemetryRegion> region;  // outlives the boards publishing into it
  std::unique_ptr<Fleet> fleet;
  std::vector<std::unique_ptr<SimBoard>> boards;
};

// Runs Fleet::Run at 1, 2 and 4 threads, idle skipping on and off, each on a
// fresh copy of the same fleet and over the same Run() chunks, and compares
// every board with the reference stepper's. The fingerprint holds the console
// output, which prints the host-only skip count, so at any thread count the
// dozing fleet skips exactly the passes the one-thread reference skipped.
void ExpectFleetMatchesReference(const DozeOptions& options,
                                 const std::vector<uint64_t>& chunks) {
  TempFiles files;
  for (bool idle_skip : {true, false}) {
    SCOPED_TRACE("idle_skip=" + std::to_string(idle_skip));
    DozeFleet reference(FleetConfig{}, options, &files, "ref" + std::to_string(idle_skip));
    for (uint64_t cycles : chunks) {
      reference.ReferenceRun(cycles, idle_skip);
    }
    // The scenario must exercise what it claims to.
    EXPECT_GT(reference.boards[2]->radio_hw().packets_received(), 0u);
    EXPECT_NE(reference.boards[4]->uart1_hw().output(), "");
    if (KernelConfig::trace_enabled) {
      EXPECT_GT(reference.Boosts(3), 1u);
      EXPECT_EQ(reference.boards[3]->kernel().stats().fleet_idle_skips > 0, idle_skip);
    }
    for (unsigned threads : {1u, 2u, 4u}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      FleetConfig config;
      config.threads = threads;
      config.idle_skip = idle_skip;
      DozeFleet fleet(config, options, &files,
                      "t" + std::to_string(threads) + "s" + std::to_string(idle_skip));
      for (uint64_t cycles : chunks) {
        fleet.fleet->Run(cycles);
      }
      for (size_t i = 0; i < DozeFleet::kBoards; ++i) {
        EXPECT_EQ(reference.Fingerprint(i), fleet.Fingerprint(i)) << "board " << i;
      }
    }
  }
}

TEST(FleetDoze, MatchesReferenceStepper) {
  ExpectFleetMatchesReference(DozeOptions{}, {600'000});
}

TEST(FleetDoze, MatchesReferenceWithUnalignedStartClocks) {
  DozeOptions options;
  options.align_clocks = false;
  ExpectFleetMatchesReference(options, {600'000});
}

// Every Run() ends by replaying the passes its dozing boards deferred, and the
// next Run() lays a fresh grid from the boards' clocks.
TEST(FleetDoze, MatchesReferenceAcrossRunChunks) {
  DozeOptions options;
  options.align_clocks = false;
  ExpectFleetMatchesReference(options, {150'001, 3, 99'999, 350'000});
}

// The epoch hook (telemetry snapshots, trace-export flushes) and the telemetry
// sink watch every deferred pass: the batched replay must show them the same
// state at the same cycles as stepping did.
TEST(FleetDoze, MatchesReferenceWithTelemetryAndTraceFlush) {
  DozeOptions options;
  options.observers = true;
  ExpectFleetMatchesReference(options, {300'000, 300'000});
}

// A batched replay of several grid passes equals the same passes replayed one
// at a time, and refuses to run past the board's next event.
TEST(FleetDoze, BatchedReplayEqualsOnePassAtATime) {
  TempFiles files;
  DozeFleet batched(FleetConfig{}, DozeOptions{}, &files, "batched");
  DozeFleet single(FleetConfig{}, DozeOptions{}, &files, "single");
  SimBoard& a = *batched.boards[3];
  SimBoard& b = *single.boards[3];
  // Run both boards past their first burst, into a long sleep.
  for (SimBoard* board : {&a, &b}) {
    board->kernel().MainLoop(board->mcu().CyclesNow() + 30'000, board->main_cap());
    ASSERT_TRUE(board->kernel().IsQuiescedUntil(board->mcu().CyclesNow() + 1));
  }
  ASSERT_EQ(a.mcu().CyclesNow(), b.mcu().CyclesNow());
  const uint64_t now = a.mcu().CyclesNow();
  const uint64_t wake = a.mcu().clock().NextEventAt();
  ASSERT_GT(wake, now + 10 * 4'608);
  const uint64_t stride = 4'608;
  const uint64_t first_end = now + 1'000;
  const uint64_t last_end = wake - 1;
  // Past the next event: refused, nothing changes.
  EXPECT_FALSE(
      a.kernel().ReplayIdlePasses(first_end, stride, wake + 1, a.main_cap(), nullptr));
  EXPECT_EQ(a.mcu().CyclesNow(), now);
  ASSERT_TRUE(a.kernel().ReplayIdlePasses(first_end, stride, last_end, a.main_cap(), nullptr));
  for (uint64_t end = first_end;; end = std::min(end + stride, last_end)) {
    ASSERT_TRUE(b.kernel().TryIdleFastForward(end, b.main_cap()));
    if (end == last_end) {
      break;
    }
  }
  EXPECT_EQ(batched.Fingerprint(3), single.Fingerprint(3));
  if (KernelConfig::trace_enabled) {
    EXPECT_GT(a.kernel().stats().fleet_idle_skips, 10u);
  }
}

// Supervision: a board whose only process exits is wedged (no runnable process,
// no future event). With restart_wedged set, the fleet revives it through the
// capability-gated restart path after the grace period — repeatedly.
TEST(FleetSupervision, RestartsWedgedBoard) {
  FleetConfig config;
  config.restart_wedged = true;
  config.wedge_grace_epochs = 2;
  Fleet fleet(config);

  BoardConfig bc;
  SimBoard board(bc);
  AppSpec app;
  app.name = "mayfly";
  app.source = R"(
_start:
    li a0, 500
    call sleep_ticks
    li a0, 0
    call tock_exit_terminate
)";
  ASSERT_NE(board.installer().Install(app), 0u) << board.installer().error();
  ASSERT_EQ(board.Boot(), 1);
  fleet.AddBoard(&board);
  fleet.Run(400'000);

  EXPECT_GT(fleet.health(0).wedge_events, 0u);
  EXPECT_GT(fleet.health(0).supervised_restarts, 1u);
  FleetStats stats = fleet.Stats();
  EXPECT_EQ(stats.supervised_restarts, fleet.health(0).supervised_restarts);
  // Every revival re-runs the app from _start: the restart count shows up as
  // repeated process work, not just a counter. (Kernel counters are compiled
  // out under -DTOCK_TRACE=OFF; the fleet-side ledger above is always live.)
  if (KernelConfig::trace_enabled) {
    EXPECT_GT(stats.aggregate.process_restarts, 0u);
  }
}

// Without supervision the board stays wedged and merely coasts to the target.
TEST(FleetSupervision, WedgedBoardWithoutRestartStaysDown) {
  Fleet fleet;
  BoardConfig bc;
  SimBoard board(bc);
  AppSpec app;
  app.name = "mayfly";
  app.source = R"(
_start:
    li a0, 0
    call tock_exit_terminate
)";
  ASSERT_NE(board.installer().Install(app), 0u) << board.installer().error();
  ASSERT_EQ(board.Boot(), 1);
  fleet.AddBoard(&board);
  fleet.Run(100'000);

  EXPECT_GT(fleet.health(0).wedge_events, 0u);
  EXPECT_EQ(fleet.health(0).supervised_restarts, 0u);
  FleetStats stats = fleet.Stats();
  EXPECT_EQ(stats.boards_live, 0u);
}

// BoardConfig::allow_scheduler_env: the TOCK_SCHED_POLICY override applies only
// to boards that did not make an explicit policy choice.
TEST(FleetConfigTest, SchedulerEnvOptOut) {
  // Save the ambient override (scripts/check_matrix.sh runs the whole suite with
  // TOCK_SCHED_POLICY=cooperative) so later tests still see it.
  const char* ambient = std::getenv("TOCK_SCHED_POLICY");
  std::string saved = ambient != nullptr ? ambient : "";
  ASSERT_EQ(setenv("TOCK_SCHED_POLICY", "mlfq", /*overwrite=*/1), 0);

  BoardConfig defaulted;  // allow_scheduler_env = true
  SimBoard follower(defaulted);
  EXPECT_EQ(follower.kernel().scheduler_policy(), SchedulerPolicy::kMlfq);

  BoardConfig explicit_choice;
  explicit_choice.kernel.scheduler.policy = SchedulerPolicy::kPriority;
  explicit_choice.allow_scheduler_env = false;
  SimBoard holdout(explicit_choice);
  EXPECT_EQ(holdout.kernel().scheduler_policy(), SchedulerPolicy::kPriority);

  if (ambient != nullptr) {
    setenv("TOCK_SCHED_POLICY", saved.c_str(), /*overwrite=*/1);
  } else {
    unsetenv("TOCK_SCHED_POLICY");
  }
}

}  // namespace
}  // namespace tock
