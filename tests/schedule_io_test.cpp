// Tests for the JSON schedule serialization.
#include <gtest/gtest.h>

#include <numeric>
#include <sstream>

#include "aapc/common/error.hpp"
#include "aapc/common/rng.hpp"
#include "aapc/core/collectives.hpp"
#include "aapc/core/schedule_io.hpp"
#include "aapc/core/scheduler.hpp"
#include "aapc/core/verify.hpp"
#include "aapc/topology/generators.hpp"

namespace aapc::core {
namespace {

using topology::make_fat_tree;
using topology::make_paper_figure1;
using topology::make_single_switch;
using topology::Topology;

TEST(ScheduleIoTest, RoundTripPreservesPhases) {
  const Topology topo = make_paper_figure1();
  const Schedule original = build_aapc_schedule(topo);
  const std::string json = schedule_to_json(original, topo.machine_count());
  const Schedule loaded = schedule_from_json(json, topo.machine_count());
  ASSERT_EQ(loaded.phase_count(), original.phase_count());
  const auto loaded_phases = loaded.phase_lists();
  const auto original_phases = original.phase_lists();
  for (std::int32_t p = 0; p < original.phase_count(); ++p) {
    EXPECT_EQ(loaded_phases[static_cast<std::size_t>(p)],
              original_phases[static_cast<std::size_t>(p)])
        << "phase " << p;
  }
  // The loaded schedule still verifies against the topology.
  const VerifyReport report = verify_schedule(topo, loaded);
  EXPECT_TRUE(report.ok) << report.summary();
}

TEST(ScheduleIoTest, GoldenFormat) {
  const Schedule schedule = Schedule::from_phase_lists(
      {{Message{0, 1}, Message{1, 2}}, {}, {Message{2, 0}}});
  EXPECT_EQ(schedule_to_json(schedule, 3),
            "{\"machines\":3,\"phases\":[[[0,1],[1,2]],[],[[2,0]]]}");
}

TEST(ScheduleIoTest, ParsesWithWhitespace) {
  const Schedule schedule = schedule_from_json(R"(
    {
      "machines": 3,
      "phases": [
        [ [0, 1], [1, 2] ],
        [ [2, 0] ]
      ]
    }
  )");
  ASSERT_EQ(schedule.phase_count(), 2);
  EXPECT_EQ(schedule.phase_size(0), 2);
  EXPECT_EQ(schedule.messages.size(), 3u);
  EXPECT_EQ(schedule.messages[2].phase, 1);
}

TEST(ScheduleIoTest, EmptySchedule) {
  const Schedule schedule =
      schedule_from_json("{\"machines\":4,\"phases\":[]}");
  EXPECT_EQ(schedule.phase_count(), 0);
  EXPECT_EQ(schedule_to_json(schedule, 4),
            "{\"machines\":4,\"phases\":[]}");
}

TEST(ScheduleIoTest, RejectsMalformedInput) {
  EXPECT_THROW(schedule_from_json(""), InvalidArgument);
  EXPECT_THROW(schedule_from_json("{\"machines\":3}"), InvalidArgument);
  EXPECT_THROW(schedule_from_json("{\"phases\":[]}"), InvalidArgument);
  EXPECT_THROW(schedule_from_json("{\"machines\":3,\"phases\":[[[0]]]}"),
               InvalidArgument);
  EXPECT_THROW(schedule_from_json("{\"machines\":3,\"bogus\":1,\"phases\":[]}"),
               InvalidArgument);
  EXPECT_THROW(
      schedule_from_json("{\"machines\":3,\"phases\":[]} trailing"),
      InvalidArgument);
}

TEST(ScheduleIoTest, RejectsRanksOutOfRange) {
  EXPECT_THROW(schedule_from_json("{\"machines\":2,\"phases\":[[[0,5]]]}"),
               InvalidArgument);
  EXPECT_THROW(schedule_from_json("{\"machines\":2,\"phases\":[[[-1,0]]]}"),
               InvalidArgument);
}

TEST(ScheduleIoTest, MachineCountMismatchRejected) {
  const std::string json = "{\"machines\":4,\"phases\":[]}";
  EXPECT_NO_THROW(schedule_from_json(json));
  EXPECT_NO_THROW(schedule_from_json(json, 4));
  EXPECT_THROW(schedule_from_json(json, 5), InvalidArgument);
}

TEST(ScheduleIoTest, LargeScheduleRoundTrip) {
  const Topology topo = make_single_switch(16);
  const Schedule original = build_aapc_schedule(topo);
  const Schedule loaded = schedule_from_json(
      schedule_to_json(original, 16), 16);
  EXPECT_EQ(loaded.message_count(), original.message_count());
  EXPECT_TRUE(verify_schedule(topo, loaded).ok);
}

// The stream writer schedule_to_json replaced, kept as the reference
// its single-pass output must equal byte for byte.
std::string reference_json(const Schedule& schedule,
                           std::int32_t machine_count) {
  std::ostringstream os;
  os << "{\"machines\":" << machine_count;
  if (schedule.kind != CollectiveKind::kAlltoall) {
    os << ",\"kind\":\"" << collective_kind_name(schedule.kind) << '"';
  }
  os << ",\"phases\":[";
  for (std::int32_t p = 0; p < schedule.phase_count(); ++p) {
    if (p > 0) os << ',';
    os << '[';
    bool first = true;
    for (const ScheduledMessage& sm : schedule.phase(p)) {
      if (!first) os << ',';
      first = false;
      os << '[' << sm.message.src << ',' << sm.message.dst << ']';
    }
    os << ']';
  }
  os << "]}";
  return os.str();
}

TEST(ScheduleIoTest, MatchesTheReferenceWriter) {
  const Topology topo = make_fat_tree(2, 2, 30);
  for (const Schedule& schedule :
       {build_aapc_schedule(topo), build_reduce_scatter_schedule(topo)}) {
    EXPECT_EQ(schedule_to_json(schedule, topo.machine_count()),
              reference_json(schedule, topo.machine_count()));
  }
  // The output buffer is sized for ranks below machine_count; wider
  // ranks (and a negative count) must grow it, never overrun it.
  Schedule wide = Schedule::from_phase_lists(
      {std::vector<Message>(200, Message{2147483647, -2147483647 - 1}),
       {Message{0, 1}}});
  wide.kind = CollectiveKind::kSparseAlltoall;
  for (const std::int32_t machines : {-7, 0, 1, 2}) {
    EXPECT_EQ(schedule_to_json(wide, machines), reference_json(wide, machines));
    // The same through the appending writer, behind existing bytes.
    std::string out = "prefix";
    append_schedule_json(out, wide, machines);
    EXPECT_EQ(out, "prefix" + reference_json(wide, machines));
  }
}

std::vector<Rank> random_permutation(std::int32_t n, std::uint64_t seed) {
  std::vector<Rank> perm(static_cast<std::size_t>(n));
  std::iota(perm.begin(), perm.end(), 0);
  Rng rng(seed);
  rng.shuffle(perm);
  return perm;
}

// The relabeling writer netd serves hits with must ship exactly what
// serializing the relabeled copy would, for every collective kind.
TEST(ScheduleIoTest, RelabelingWriterMatchesTheRelabeledCopy) {
  const Topology topo = make_fat_tree(2, 2, 30);
  const std::int32_t n = topo.machine_count();
  SparseNeighbors neighbors(static_cast<std::size_t>(n));
  for (Rank r = 0; r < n; ++r) {
    neighbors[static_cast<std::size_t>(r)] = {(r + 1) % n, (r + 7) % n};
  }
  const Schedule schedules[] = {
      build_aapc_schedule(topo), build_allgather_schedule(topo),
      build_reduce_scatter_schedule(topo),
      build_sparse_alltoall_schedule(topo, neighbors)};
  for (const Schedule& schedule : schedules) {
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      const std::vector<Rank> from_canonical = random_permutation(n, seed);
      std::string out = "head";
      append_schedule_json(out, schedule, n, &from_canonical);
      EXPECT_EQ(out, "head" + schedule_to_json(
                                  relabel_schedule(schedule, from_canonical),
                                  n))
          << collective_kind_name(schedule.kind) << " seed " << seed;
    }
  }
}

TEST(ScheduleIoTest, RelabelingWriterRejectsAnUncoveredRank) {
  const Topology topo = make_paper_figure1();
  const Schedule schedule = build_aapc_schedule(topo);
  std::vector<Rank> short_perm =
      random_permutation(topo.machine_count() - 1, 5);
  std::string out;
  EXPECT_THROW(append_schedule_json(out, schedule, topo.machine_count(),
                                    &short_perm),
               InvalidArgument);
  // A negative rank is never covered either.
  const Schedule negative =
      Schedule::from_phase_lists({{Message{0, -1}}});
  const std::vector<Rank> identity{0, 1};
  EXPECT_THROW(append_schedule_json(out, negative, 2, &identity),
               InvalidArgument);
}

// 64-bit FNV-1a, the digest perfbench keeps of each expected answer.
std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

// The exact bytes netd ships for the 256-host fat tree, pinned by
// digest: clients byte-compare responses, so any drift in the writer
// (separators, the implicit alltoall kind, multi-digit ranks) is a
// wire change, not a refactor.
TEST(ScheduleIoTest, FatTreeAlltoallBytesPinned) {
  const Topology topo = make_fat_tree(4, 4, 16);
  const std::string json =
      schedule_to_json(build_aapc_schedule(topo), topo.machine_count());
  EXPECT_EQ(json.size(), 621303u);
  EXPECT_EQ(fnv1a(json), 3513220231403834290ull);
}

TEST(ScheduleIoTest, FatTreeAllgatherBytesPinned) {
  const Topology topo = make_fat_tree(4, 4, 16);
  const std::string json =
      schedule_to_json(build_allgather_schedule(topo), topo.machine_count());
  EXPECT_EQ(json.rfind("{\"machines\":256,\"kind\":\"allgather\",", 0), 0u);
  EXPECT_EQ(json.size(), 597256u);
  EXPECT_EQ(fnv1a(json), 7862019651711202450ull);
}

// The same pinned bytes through the relabeling writer's digit tables,
// given the identity as an explicit permutation.
TEST(ScheduleIoTest, FatTreeBytesPinnedThroughAnIdentityPermutation) {
  const Topology topo = make_fat_tree(4, 4, 16);
  std::vector<Rank> identity(static_cast<std::size_t>(topo.machine_count()));
  std::iota(identity.begin(), identity.end(), 0);
  std::string alltoall;
  append_schedule_json(alltoall, build_aapc_schedule(topo),
                       topo.machine_count(), &identity);
  EXPECT_EQ(alltoall.size(), 621303u);
  EXPECT_EQ(fnv1a(alltoall), 3513220231403834290ull);
  std::string allgather;
  append_schedule_json(allgather, build_allgather_schedule(topo),
                       topo.machine_count(), &identity);
  EXPECT_EQ(allgather.size(), 597256u);
  EXPECT_EQ(fnv1a(allgather), 7862019651711202450ull);
}

}  // namespace
}  // namespace aapc::core
