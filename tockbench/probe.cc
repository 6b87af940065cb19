// The host-speed probe (probe.h). CMakeLists.txt compiles this file with
// fixed options, so that a change to the repository's compile flags moves
// the simulator's speed but not the probe's.
#include "probe.h"

#include <algorithm>

#include "spans.h"

namespace tockbench {
namespace {

constexpr uint32_t kCodeLen = 16;
constexpr uint32_t kMemWords = 1u << 16;
constexpr uint32_t kRounds = 12'800;

}  // namespace

HostProbe::HostProbe() : code_(kCodeLen), mem_(kMemWords) {
  uint64_t x = 0x2545F4914F6CDD1Dull;
  for (uint32_t& c : code_) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    c = static_cast<uint32_t>(x >> 16);
  }
}

double HostProbe::Run() {
  const uint64_t start = ThreadCpuNs();
  std::fill(mem_.begin(), mem_.end(), 0u);
  uint32_t r[16];
  for (uint32_t i = 0; i < 16; ++i) r[i] = i * 0x9E3779B9u;
  // The program's length is read at run time, so the dispatch loop stays a
  // loop rather than being unrolled.
  const uint32_t* code = code_.data();
  const uint32_t len = static_cast<uint32_t>(code_.size());
  uint32_t* mem = mem_.data();
  constexpr uint32_t kMask = kMemWords - 1;
  for (uint32_t round = 0; round < kRounds; ++round) {
    for (uint32_t pc = 0; pc < len; ++pc) {
      const uint32_t c = code[pc];
      const uint32_t rd = (c >> 3) & 15, rs = (c >> 7) & 15, imm = c >> 11;
      switch (c & 7) {
        case 0: r[rd] += r[rs] + imm; break;
        case 1: r[rd] ^= r[rs] >> (imm & 15); break;
        case 2: r[rd] = mem[(r[rs] * 0x9E3779B1u + imm) & kMask]; break;
        case 3: mem[(r[rd] + imm) & kMask] = r[rs]; break;
        case 4: if (r[rd] & 1) pc += imm & 7; break;
        case 5: r[rd] *= r[rs] | 1; break;
        case 6: r[rd] = r[rd] < r[rs] ? imm : r[rs]; break;
        default: r[rd] -= imm; break;
      }
    }
  }
  checksum_ = 0;
  for (uint32_t v : r) checksum_ = checksum_ * 31 + v;
  return static_cast<double>(ThreadCpuNs() - start) / 1e9;
}

}  // namespace tockbench
