// OTA distribution tests (DESIGN.md §12): a gateway board pushes a signed TBF
// image to subscriber boards over the lossy packet fabric. The acceptance
// criteria pinned here:
//   * every subscriber converges on the signed update — on a clean link and
//     under seeded drop/duplication/corruption;
//   * tampered images are rejected at the right §3.4 stage (typed LoadError),
//     re-requested up to the retry budget, and never wedge a board;
//   * fault injection and the whole campaign are bit-identical for any host
//     thread count (delivery logs, fault counters, protocol stats).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "board/fleet.h"
#include "board/sim_board.h"

namespace tock {
namespace {

// Baseline workload on every subscriber: the app that must keep running while
// the update streams in and verifies.
const char* kSleeperApp = R"(
_start:
loop:
    li a0, 50000
    call sleep_ticks
    j loop
)";

// A 1-gateway + N-subscriber deployment against an optionally lossy medium.
struct OtaFleet {
  OtaFleet(unsigned threads, size_t subscribers, const LinkFaultConfig& faults,
           const AppSpec& update) {
    FleetConfig config;
    config.threads = threads;
    config.link_faults = faults;
    fleet = std::make_unique<Fleet>(config);
    static constexpr SchedulerPolicy kRotation[] = {
        SchedulerPolicy::kRoundRobin, SchedulerPolicy::kPriority, SchedulerPolicy::kMlfq};
    for (size_t i = 0; i < subscribers + 1; ++i) {
      BoardConfig bc;
      bc.rng_seed = 0x07A + static_cast<uint32_t>(i);
      bc.radio_addr = static_cast<uint16_t>(i + 1);
      bc.medium = &fleet->medium();
      bc.kernel.scheduler.policy = kRotation[i % 3];
      bc.allow_scheduler_env = false;
      bc.ota.role = i == 0 ? OtaRole::kGateway : OtaRole::kSubscriber;
      auto board = std::make_unique<SimBoard>(bc);
      board->radio_hw().EnableDeliveryLog();
      int expected = 0;
      if (i != 0) {
        AppSpec sleeper;
        sleeper.name = "sleeper";
        sleeper.source = kSleeperApp;
        EXPECT_NE(board->installer().Install(sleeper), 0u) << board->installer().error();
        expected = 1;
      }
      EXPECT_EQ(board->Boot(), expected);
      fleet->AddBoard(board.get());
      boards.push_back(std::move(board));
    }
    fleet->AlignClocks();

    // All subscribers carry identical baseline apps and so resolve the same
    // staging address; the gateway builds the position-dependent image for it.
    staging = boards[1]->ota_staging_addr();
    std::string error;
    std::vector<uint8_t> image = BuildAppImage(update, staging, SimBoard::kDeviceKey, &error);
    EXPECT_FALSE(image.empty()) << error;
    std::vector<uint16_t> addrs;
    for (size_t i = 1; i < boards.size(); ++i) {
      addrs.push_back(static_cast<uint16_t>(i + 1));
    }
    gateway().Configure(std::move(image), addrs);
    gateway().StartPush();
  }

  OtaGateway& gateway() { return boards[0]->ota_gateway(); }
  OtaSubscriber& subscriber(size_t i) { return boards[i + 1]->ota_subscriber(); }
  size_t subscriber_count() const { return boards.size() - 1; }

  // Steps the fleet in epochs until the gateway resolved every peer (converged
  // or failed) or the cycle budget runs out. Returns cycles actually run.
  uint64_t RunUntilDone(uint64_t budget, uint64_t step = 1'000'000) {
    uint64_t ran = 0;
    while (ran < budget && !gateway().Done()) {
      fleet->Run(step);
      ran += step;
    }
    // Let the final status exchanges settle (converged peers stop transmitting).
    fleet->Run(step);
    return ran + step;
  }

  // Everything observable about one board, as one comparable string — including
  // the injected-fault marks, so fault injection itself is proven reproducible.
  std::string Fingerprint(size_t i) {
    SimBoard& board = *boards[i];
    std::string out;
    char line[192];
    LinkFaultCounters faults = board.radio_hw().fault_counters();
    std::snprintf(line, sizeof(line),
                  "cycles=%llu insns=%llu tx=%llu rx=%llu ovr=%llu "
                  "drop=%llu dup=%llu reo=%llu cor=%llu\n",
                  static_cast<unsigned long long>(board.mcu().CyclesNow()),
                  static_cast<unsigned long long>(board.kernel().instructions_retired()),
                  static_cast<unsigned long long>(board.radio_hw().packets_sent()),
                  static_cast<unsigned long long>(board.radio_hw().packets_received()),
                  static_cast<unsigned long long>(board.radio_hw().rx_overruns()),
                  static_cast<unsigned long long>(faults.dropped),
                  static_cast<unsigned long long>(faults.duplicated),
                  static_cast<unsigned long long>(faults.reordered),
                  static_cast<unsigned long long>(faults.corrupted));
    out += line;
    for (const RadioDeliveryRecord& r : board.radio_hw().delivery_log()) {
      std::snprintf(line, sizeof(line),
                    "deliver cycle=%llu src=%u dst=%u len=%u sum=%u fault=%u ovr=%d\n",
                    static_cast<unsigned long long>(r.cycle), r.src, r.dst, r.len,
                    r.payload_sum, r.fault_bits, r.overrun ? 1 : 0);
      out += line;
    }
    return out;
  }

  // FNV-1a over every board's Fingerprint, in board order.
  uint64_t Digest() {
    uint64_t h = 0xCBF29CE484222325ull;
    for (size_t i = 0; i < boards.size(); ++i) {
      for (char ch : Fingerprint(i)) {
        h = (h ^ static_cast<uint8_t>(ch)) * 0x100000001B3ull;
      }
    }
    return h;
  }

  std::unique_ptr<Fleet> fleet;
  std::vector<std::unique_ptr<SimBoard>> boards;
  uint32_t staging = 0;
};

AppSpec SignedUpdate() {
  AppSpec update;
  update.name = "update";
  update.source = kSleeperApp;
  update.sign = true;
  return update;
}

// ---- Convergence ----------------------------------------------------------------------------

TEST(OtaDistribution, CleanLinkConverges) {
  OtaFleet ota(1, /*subscribers=*/8, LinkFaultConfig{}, SignedUpdate());
  ota.RunUntilDone(60'000'000);

  ASSERT_TRUE(ota.gateway().Done());
  EXPECT_EQ(ota.gateway().stats().converged, 8u);
  EXPECT_EQ(ota.gateway().stats().failed, 0u);
  EXPECT_EQ(ota.gateway().stats().image_repushes, 0u);
  for (size_t i = 0; i < ota.subscriber_count(); ++i) {
    EXPECT_TRUE(ota.subscriber(i).Converged()) << "subscriber " << i;
    // The baseline app kept running and the verified update joined it.
    EXPECT_EQ(ota.boards[i + 1]->kernel().NumLiveProcesses(), 2u) << "subscriber " << i;
    const ProcessLoader::LoadRecord* rec = ota.boards[i + 1]->loader().RecordFor(ota.staging);
    ASSERT_NE(rec, nullptr);
    EXPECT_TRUE(rec->created);
    EXPECT_TRUE(rec->verified);
  }
  FleetStats stats = ota.fleet->Stats();
  EXPECT_EQ(stats.wedge_events, 0u);
  EXPECT_EQ(stats.frames_dropped + stats.frames_duplicated + stats.frames_corrupted, 0u);
}

TEST(OtaDistribution, LossyLinksConverge) {
  // 10% drop + 2% duplication + 1% payload corruption: the retry/backoff plane
  // must deliver every subscriber anyway, with zero wedged boards.
  LinkFaultConfig faults;
  faults.seed = 0xD15EA5E;
  faults.drop_permille = 100;
  faults.duplicate_permille = 20;
  faults.corrupt_permille = 10;
  OtaFleet ota(1, /*subscribers=*/8, faults, SignedUpdate());
  ota.RunUntilDone(120'000'000);

  ASSERT_TRUE(ota.gateway().Done());
  EXPECT_EQ(ota.gateway().stats().converged, 8u);
  EXPECT_EQ(ota.gateway().stats().failed, 0u);
  for (size_t i = 0; i < ota.subscriber_count(); ++i) {
    EXPECT_TRUE(ota.subscriber(i).Converged()) << "subscriber " << i;
    EXPECT_EQ(ota.boards[i + 1]->kernel().NumLiveProcesses(), 2u) << "subscriber " << i;
  }
  FleetStats stats = ota.fleet->Stats();
  EXPECT_EQ(stats.wedge_events, 0u);
  EXPECT_GT(stats.frames_dropped, 0u);
  EXPECT_GT(stats.frames_corrupted, 0u);
  // Loss was actually recovered from, not dodged.
  EXPECT_GT(ota.gateway().stats().retransmits, 0u);
}

// A duplicated kStatus frame for a peer the gateway already resolved must not
// reach the ledger a second time: every subscriber is counted exactly once, as
// converged or failed, however many copies of its final status arrive.
TEST(OtaDistribution, DuplicatedStatusCountedOnce) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE(testing::Message() << "fault seed " << seed);
    LinkFaultConfig faults;
    faults.seed = seed;
    faults.duplicate_permille = 300;
    OtaFleet ota(1, /*subscribers=*/8, faults, SignedUpdate());
    ota.RunUntilDone(120'000'000);

    ASSERT_TRUE(ota.gateway().Done());
    EXPECT_GT(ota.fleet->Stats().frames_duplicated, 0u);
    EXPECT_EQ(ota.gateway().stats().converged + ota.gateway().stats().failed, 8u);
  }
}

TEST(OtaDistribution, HeavyLossStillConverges) {
  // 30% drop: deep backoff territory; convergence just takes longer.
  LinkFaultConfig faults;
  faults.seed = 0xBADC0DE;
  faults.drop_permille = 300;
  OtaFleet ota(1, /*subscribers=*/4, faults, SignedUpdate());
  ota.RunUntilDone(240'000'000);

  ASSERT_TRUE(ota.gateway().Done());
  EXPECT_EQ(ota.gateway().stats().converged, 4u);
  EXPECT_EQ(ota.gateway().stats().failed, 0u);
  EXPECT_GT(ota.gateway().stats().retransmits, 0u);
  EXPECT_EQ(ota.fleet->Stats().wedge_events, 0u);
}

// ---- Graceful degradation (§3.4 typed rejection) --------------------------------------------

TEST(OtaDistribution, TamperedImageRejectedAtAuthenticityStage) {
  // The pushed image carries a flipped signature bit: every chunk CRC passes and
  // the whole-image CRC passes (the gateway hashed the tampered bytes), so the
  // rejection must come from the loader's authenticity stage — typed, counted,
  // re-requested up to the image budget, then a clean give-up. No board wedges.
  AppSpec tampered = SignedUpdate();
  tampered.corrupt_signature = true;
  OtaFleet ota(1, /*subscribers=*/2, LinkFaultConfig{}, tampered);
  ota.RunUntilDone(120'000'000);

  ASSERT_TRUE(ota.gateway().Done());
  const OtaGatewayStats& gw = ota.gateway().stats();
  EXPECT_EQ(gw.converged, 0u);
  EXPECT_EQ(gw.failed, 2u);
  // Every push attempt was rejected at the authenticity stage and re-pushed
  // until the per-subscriber image budget ran out.
  EXPECT_EQ(gw.reject_authenticity, 2u * OtaGateway::kImageRetryLimit);
  EXPECT_EQ(gw.image_repushes, 2u * (OtaGateway::kImageRetryLimit - 1));
  EXPECT_EQ(gw.reject_integrity + gw.reject_image_crc + gw.reject_other, 0u);

  for (size_t i = 0; i < ota.subscriber_count(); ++i) {
    EXPECT_FALSE(ota.subscriber(i).Converged());
    EXPECT_EQ(ota.subscriber(i).last_status(),
              static_cast<uint8_t>(LoadError::kAuthenticity));
    // The baseline app is untouched by the failed update.
    EXPECT_EQ(ota.boards[i + 1]->kernel().NumLiveProcesses(), 1u);
    // Retried loads clear their stale failure records: one row per slot, not
    // one per attempt.
    const ProcessLoader& loader = ota.boards[i + 1]->loader();
    size_t staging_records = 0;
    for (const ProcessLoader::LoadRecord& rec : loader.records()) {
      if (rec.flash_addr == ota.staging) {
        ++staging_records;
      }
    }
    EXPECT_EQ(staging_records, 1u);
    EXPECT_EQ(loader.RecordFor(ota.staging)->error, LoadError::kAuthenticity);
  }
  // Degraded, not wedged: every board still has live processes or future events.
  FleetStats stats = ota.fleet->Stats();
  EXPECT_EQ(stats.wedge_events, 0u);
  EXPECT_EQ(stats.boards_live, 3u);
}

TEST(OtaDistribution, UnsignedImageRejectedAtIntegrityStage) {
  AppSpec unsigned_update = SignedUpdate();
  unsigned_update.sign = false;
  OtaFleet ota(1, /*subscribers=*/1, LinkFaultConfig{}, unsigned_update);
  ota.RunUntilDone(60'000'000);

  ASSERT_TRUE(ota.gateway().Done());
  EXPECT_EQ(ota.gateway().stats().converged, 0u);
  EXPECT_EQ(ota.gateway().stats().failed, 1u);
  EXPECT_EQ(ota.gateway().stats().reject_integrity, OtaGateway::kImageRetryLimit);
  EXPECT_EQ(ota.subscriber(0).last_status(), static_cast<uint8_t>(LoadError::kUnsigned));
  EXPECT_EQ(ota.fleet->Stats().wedge_events, 0u);
}

// ---- Determinism ----------------------------------------------------------------------------

// The tentpole guarantee extended to the fault layer: the same lossy OTA
// campaign stepped by 1 and by 4 host threads injects the exact same faults on
// the exact same frames and produces bit-identical boards, protocol stats, and
// delivery logs (ISSUE acceptance criterion; TSan-clean under the tsan preset).
TEST(OtaDeterminism, ThreadCountInvariant) {
  LinkFaultConfig faults;
  faults.seed = 0x5EED;
  faults.drop_permille = 100;
  faults.duplicate_permille = 20;
  faults.reorder_permille = 10;
  faults.corrupt_permille = 10;
  AppSpec update = SignedUpdate();
  OtaFleet solo(1, /*subscribers=*/4, faults, update);
  OtaFleet quad(4, /*subscribers=*/4, faults, update);
  // Fixed budget (no early exit): both runs must cover identical cycles.
  solo.fleet->Run(40'000'000);
  quad.fleet->Run(40'000'000);

  for (size_t i = 0; i < solo.boards.size(); ++i) {
    EXPECT_EQ(solo.Fingerprint(i), quad.Fingerprint(i)) << "board " << i;
  }
  // Pinned across radio-model changes: recorded when every receiver was handed
  // a copy of every frame and dropped the unaddressed ones at delivery.
  EXPECT_EQ(solo.Digest(), 0x16427E5756CFFA90ull);
  EXPECT_EQ(quad.Digest(), 0x16427E5756CFFA90ull);
  EXPECT_EQ(solo.gateway().stats().frames_sent, quad.gateway().stats().frames_sent);
  EXPECT_EQ(solo.gateway().stats().retransmits, quad.gateway().stats().retransmits);
  EXPECT_EQ(solo.gateway().stats().converged, quad.gateway().stats().converged);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(solo.subscriber(i).stats().chunks_received,
              quad.subscriber(i).stats().chunks_received);
    EXPECT_EQ(solo.subscriber(i).stats().chunk_crc_failures,
              quad.subscriber(i).stats().chunk_crc_failures);
    EXPECT_EQ(solo.subscriber(i).Converged(), quad.subscriber(i).Converged());
  }
  // The campaign must have actually exercised the fault layer to prove anything.
  FleetStats stats = solo.fleet->Stats();
  EXPECT_GT(stats.frames_dropped, 0u);
  EXPECT_EQ(stats.frames_dropped, quad.fleet->Stats().frames_dropped);
  // And both runs converged everyone within the budget.
  EXPECT_EQ(solo.gateway().stats().converged, 4u);
}

}  // namespace
}  // namespace tock
