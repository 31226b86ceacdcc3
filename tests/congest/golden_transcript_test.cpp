// Golden cross-version gate: the CONGEST uniformity tester's level-2
// DUT_TRACE transcript (every send, deliver, fault, halt and per-round
// live-node count) and its verdict/metrics line are pinned as constants for
// four topologies, each plain and under a mixed message-fault + crash plan.
// The constants were recorded before the engine learned to skip sleeping
// nodes; any engine or transport change that alters a single byte of a
// transcript — event order, a fault draw, a round count — fails here.
//
// A deliberate protocol change regenerates the constants: the failure
// message prints each case's observed digest and line.

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "dut/congest/uniformity.hpp"
#include "dut/core/families.hpp"
#include "dut/core/sampler.hpp"

namespace dut::congest {
namespace {

using net::Graph;

constexpr const char* kFaultSpec =
    "drop=0.02,dup=0.01,corrupt=0.01,delay=0.01:3,crash=5@40+17@90";

struct GoldenCase {
  const char* name;
  const char* topology;
  bool faults;
  std::uint64_t seed;
  std::uint64_t transcript_digest;
  const char* result_line;
};

Graph make_graph(const std::string& topology, std::uint32_t k) {
  if (topology == "grid") return Graph::grid(32, 32);
  if (topology == "star") return Graph::star(k);
  if (topology == "ring") return Graph::ring(k);
  return Graph::random_connected(k, 2.0, 23);
}

std::uint64_t fnv1a64(const std::string& bytes) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001B3ULL;
  }
  return h;
}

std::string result_line(const CongestRunResult& r) {
  const net::EngineMetrics& m = r.metrics;
  char buf[512];
  std::snprintf(
      buf, sizeof buf,
      "accepts=%d votes=%" PRIu64 "/%" PRIu64 " rounds=%" PRIu64
      " bits=%" PRIu64 " packages=%" PRIu64 " leader=%u quorum=%d"
      " reporting=%" PRIu64 " msgs=%" PRIu64 " total_bits=%" PRIu64
      " max_bits=%" PRIu64 " faults=%" PRIu64 "/%" PRIu64 "/%" PRIu64
      "/%" PRIu64 "/%" PRIu64 "/%" PRIu64 " node_bits=%" PRIu64
      " busiest=%u",
      r.verdict.accepts ? 1 : 0, r.verdict.votes_reject,
      r.verdict.votes_total, r.verdict.rounds, r.verdict.bits,
      r.num_packages, r.leader, r.quorum_met ? 1 : 0, r.nodes_reporting,
      m.messages, m.total_bits, m.max_message_bits, m.faults.dropped,
      m.faults.duplicated, m.faults.corrupted, m.faults.delayed,
      m.faults.expired, m.faults.crashes, m.budget.max_node_bits,
      m.budget.busiest_node);
  return buf;
}

void PrintTo(const GoldenCase& c, std::ostream* os) { *os << c.name; }

class GoldenTranscript : public testing::TestWithParam<GoldenCase> {};

TEST_P(GoldenTranscript, MatchesRecordedDigest) {
  const GoldenCase& c = GetParam();
  const std::uint64_t n = 1 << 12;
  const std::uint32_t k = 1024;
  const auto plan = plan_congest(n, k, 0.9, 1.0 / 3.0,
                                 core::TailBound::kExactBinomial, 16);
  ASSERT_TRUE(plan.feasible) << plan.infeasible_reason;
  const Graph g = make_graph(c.topology, k);
  const core::AliasSampler sampler(core::uniform(n));

  CongestResilience resilience;
  net::FaultPlan faults;
  if (c.faults) {
    resilience.enabled = true;
    faults = net::FaultPlan::parse(kFaultSpec);
  }
  CongestSetup setup = make_congest_setup(plan, g, resilience,
                                          c.faults ? &faults : nullptr);

  const std::string path =
      testing::TempDir() + "golden_" + c.name + ".jsonl";
  std::remove(path.c_str());
  ASSERT_EQ(setenv("DUT_TRACE", path.c_str(), 1), 0);
  ASSERT_EQ(setenv("DUT_TRACE_LEVEL", "2", 1), 0);
  ASSERT_EQ(unsetenv("DUT_TRACE_TAIL"), 0);
  CongestRunResult result;
  try {
    result = run_congest_uniformity(plan, setup, sampler, c.seed, true);
  } catch (...) {
    unsetenv("DUT_TRACE");
    unsetenv("DUT_TRACE_LEVEL");
    throw;
  }
  unsetenv("DUT_TRACE");
  unsetenv("DUT_TRACE_LEVEL");

  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string transcript = buffer.str();
  in.close();
  std::remove(path.c_str());
  ASSERT_FALSE(transcript.empty());

  char digest[32];
  std::snprintf(digest, sizeof digest, "0x%016" PRIX64 "ULL",
                fnv1a64(transcript));
  EXPECT_EQ(fnv1a64(transcript), c.transcript_digest)
      << c.name << " transcript digest is now " << digest;
  EXPECT_EQ(result_line(result), c.result_line)
      << c.name << " verdict/metrics line changed";
}

// Recorded with the always-awake engine (every live node stepped every
// round). Rounds, messages and fault tallies are the protocol's; the
// transcript digest additionally pins event order byte for byte.
constexpr GoldenCase kCases[] = {
    {"grid_plain", "grid", false, 7101,
     0x9F467BDF31F873E0ULL,
     "accepts=0 votes=15/2340 rounds=233 bits=542587 packages=2340 "
     "leader=944 quorum=1 reporting=1024 msgs=27322 total_bits=542587 "
     "max_bits=23 faults=0/0/0/0/0/0 node_bits=1012 busiest=189"},
    {"star_plain", "star", false, 7102,
     0xA7C81EF57A149744ULL,
     "accepts=1 votes=9/2340 rounds=14 bits=167803 packages=2340 "
     "leader=330 quorum=1 reporting=1024 msgs=10784 total_bits=167803 "
     "max_bits=23 faults=0/0/0/0/0/0 node_bits=64480 busiest=0"},
    {"ring_plain", "ring", false, 7103,
     0xF382909AEA188EDDULL,
     "accepts=1 votes=13/2340 rounds=2568 bits=311457 packages=2340 "
     "leader=976 quorum=1 reporting=1024 msgs=17144 total_bits=311457 "
     "max_bits=23 faults=0/0/0/0/0/0 node_bits=562 busiest=357"},
    {"random_plain", "random", false, 7104,
     0x8C4DB43B14FEE8B8ULL,
     "accepts=1 votes=10/2340 rounds=48 bits=473408 packages=2340 "
     "leader=670 quorum=1 reporting=1024 msgs=24211 total_bits=473408 "
     "max_bits=23 faults=0/0/0/0/0/0 node_bits=1959 busiest=142"},
    {"grid_faults", "grid", true, 7201,
     0xFB67AA234AC0A6B0ULL,
     "accepts=0 votes=9/2181 rounds=1429 bits=2331125 packages=2181 "
     "leader=855 quorum=0 reporting=1011 msgs=61397 total_bits=2331125 "
     "max_bits=53 faults=1253/554/579/589/928/2 node_bits=3541 "
     "busiest=961"},
    {"star_faults", "star", true, 7202,
     0x8AFF15246052DD89ULL,
     "accepts=0 votes=6/2329 rounds=161 bits=684101 packages=2329 "
     "leader=100 quorum=0 reporting=1024 msgs=21525 total_bits=684101 "
     "max_bits=50 faults=401/196/203/225/1006/2 node_bits=289568 "
     "busiest=0"},
    {"ring_faults", "ring", true, 7203,
     0x58C6C28AF9BC798BULL,
     "accepts=0 votes=13/2047 rounds=10879 bits=1380423 packages=2047 "
     "leader=539 quorum=0 reporting=1002 msgs=33971 total_bits=1380423 "
     "max_bits=56 faults=594/337/327/320/561/2 node_bits=2029 "
     "busiest=880"},
    {"random_faults", "random", true, 7204,
     0x705FB529D8D1FA3EULL,
     "accepts=0 votes=8/2211 rounds=358 bits=1614455 packages=2211 "
     "leader=1018 quorum=0 reporting=982 msgs=45480 total_bits=1614455 "
     "max_bits=51 faults=870/436/463/392/775/2 node_bits=5436 busiest=2"},
};

INSTANTIATE_TEST_SUITE_P(Cases, GoldenTranscript, testing::ValuesIn(kCases),
                         [](const testing::TestParamInfo<GoldenCase>& info) {
                           return std::string(info.param.name);
                         });

}  // namespace
}  // namespace dut::congest
