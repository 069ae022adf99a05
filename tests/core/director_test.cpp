#include "core/director.hpp"

#include <gtest/gtest.h>

#include "common/sha1.hpp"

namespace debar::core {
namespace {

JobVersionRecord make_record(std::uint64_t job, std::uint32_t version,
                             std::uint64_t fp_base, std::size_t chunks) {
  JobVersionRecord rec;
  rec.job_id = job;
  rec.version = version;
  FileRecord file;
  file.meta = {.path = "f.dat", .size = chunks * 8192, .mtime = 0, .mode = 0644};
  for (std::size_t i = 0; i < chunks; ++i) {
    file.chunk_fps.push_back(Sha1::hash_counter(fp_base + i));
    file.chunk_sizes.push_back(8192);
  }
  rec.logical_bytes = file.logical_bytes();
  rec.files.push_back(std::move(file));
  return rec;
}

TEST(DirectorTest, DefineAndQueryJobs) {
  Director director;
  const std::uint64_t id1 = director.define_job("client-a", "dataset-a", 1);
  const std::uint64_t id2 = director.define_job("client-b", "dataset-b", 7);
  EXPECT_NE(id1, id2);

  const auto job = director.job(id1);
  ASSERT_TRUE(job.has_value());
  EXPECT_EQ(job->client_name, "client-a");
  EXPECT_FALSE(director.job(9999).has_value());
}

TEST(DirectorTest, SchedulePeriodsSelectJobs) {
  Director director;
  const std::uint64_t daily = director.define_job("a", "d", 1);
  const std::uint64_t weekly = director.define_job("b", "w", 7);

  const auto day7 = director.jobs_due_on_day(7);
  ASSERT_EQ(day7.size(), 2u);
  const auto day3 = director.jobs_due_on_day(3);
  ASSERT_EQ(day3.size(), 1u);
  EXPECT_EQ(day3[0].job_id, daily);
  (void)weekly;
}

TEST(DirectorTest, LeastLoadedAssignment) {
  Director director;
  const std::size_t s1 = director.assign_server(1, 1000, 4);
  const std::size_t s2 = director.assign_server(2, 10, 4);
  EXPECT_NE(s1, s2);  // second job avoids the loaded server
  // Next big job avoids both.
  const std::size_t s3 = director.assign_server(3, 10, 4);
  EXPECT_NE(s3, s1);
  EXPECT_NE(s3, s2);
}

TEST(DirectorTest, AssignmentSkipsUnreachableServers) {
  Director director;
  director.mark_unreachable(0);
  EXPECT_TRUE(director.is_unreachable(0));
  EXPECT_FALSE(director.is_unreachable(1));

  // Server 0 is idle but down; jobs go to the reachable ones.
  for (int i = 0; i < 4; ++i) {
    EXPECT_NE(director.assign_server(1 + i, 100, 4), 0u);
  }

  director.mark_reachable(0);
  EXPECT_FALSE(director.is_unreachable(0));
  // Back in rotation, and the least loaded by far.
  EXPECT_EQ(director.assign_server(10, 100, 4), 0u);
}

TEST(DirectorTest, ProbeReadmitsServersTheTransportReachesAgain) {
  // mark_unreachable used to be permanent — a server that failed one
  // round was skipped forever. The round-boundary probe flips the marks
  // back for every server its callback vouches for, and only those.
  Director director;
  director.mark_unreachable(0);
  director.mark_unreachable(2);
  EXPECT_EQ(director.unreachable_servers(),
            (std::vector<std::size_t>{0, 2}));

  // First probe: server 0 is back, server 2 still dark.
  director.probe_reachability(4, [](std::size_t s) { return s != 2; });
  EXPECT_FALSE(director.is_unreachable(0));
  EXPECT_TRUE(director.is_unreachable(2));
  EXPECT_EQ(director.unreachable_servers(), (std::vector<std::size_t>{2}));
  // Assignment sees the recovery immediately.
  for (int i = 0; i < 4; ++i) {
    EXPECT_NE(director.assign_server(1 + i, 100, 4), 2u);
  }

  // Second probe: everything answers — no marks left.
  director.probe_reachability(4, [](std::size_t) { return true; });
  EXPECT_TRUE(director.unreachable_servers().empty());
}

TEST(DirectorTest, AllUnreachableFallsBackToLeastLoaded) {
  Director director;
  ASSERT_EQ(director.assign_server(1, 1000, 2), 0u);  // load server 0
  director.mark_unreachable(0);
  director.mark_unreachable(1);
  // Nothing reachable: degrade to plain least-loaded rather than refuse.
  EXPECT_EQ(director.assign_server(2, 10, 2), 1u);
}

TEST(DirectorTest, AffinityHoldsUntilItsTicketIsReleased) {
  Director director;
  director.hold_version(7, 2, 1);
  director.hold_version(8, 2, 2);
  EXPECT_EQ(director.assign_server(7, 1000, 4), 2u);  // pinned there
  director.release_versions(2, 1);
  EXPECT_FALSE(director.unresolved_holder(7).has_value());
  EXPECT_EQ(director.unresolved_holder(8), std::size_t{2});

  // A newer version elsewhere moves the hold; the old server's release
  // leaves it alone.
  director.hold_version(8, 3, 1);
  director.release_versions(2, 5);
  EXPECT_EQ(director.unresolved_holder(8), std::size_t{3});
  // An unreachable holder does not pin the job.
  director.mark_unreachable(3);
  EXPECT_NE(director.assign_server(8, 10, 4), 3u);
}

TEST(DirectorTest, VersionChainAndFilteringFingerprints) {
  Director director;
  const std::uint64_t job = director.define_job("c", "d");
  EXPECT_EQ(director.next_version(job), 1u);
  EXPECT_TRUE(director.filtering_fingerprints(job).empty());

  ASSERT_TRUE(director.submit_version(make_record(job, 1, 0, 10)).ok());
  EXPECT_EQ(director.next_version(job), 2u);
  const auto filtering = director.filtering_fingerprints(job);
  EXPECT_EQ(filtering.size(), 10u);
  EXPECT_EQ(filtering[0], Sha1::hash_counter(0));

  ASSERT_TRUE(director.submit_version(make_record(job, 2, 100, 5)).ok());
  // Filtering fingerprints now come from version 2.
  const auto filtering2 = director.filtering_fingerprints(job);
  EXPECT_EQ(filtering2.size(), 5u);
  EXPECT_EQ(filtering2[0], Sha1::hash_counter(100));
}

TEST(DirectorTest, VersionRetrieval) {
  Director director;
  const std::uint64_t job = director.define_job("c", "d");
  ASSERT_TRUE(director.submit_version(make_record(job, 1, 0, 3)).ok());
  ASSERT_TRUE(director.submit_version(make_record(job, 2, 50, 4)).ok());

  const auto v1 = director.version(job, 1);
  ASSERT_TRUE(v1.has_value());
  EXPECT_EQ(v1->files[0].chunk_fps.size(), 3u);
  const auto latest = director.latest_version(job);
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->version, 2u);
  EXPECT_FALSE(director.version(job, 3).has_value());
  EXPECT_EQ(director.version_count(job), 2u);
}

TEST(DirectorTest, TotalLogicalBytesAccumulates) {
  Director director;
  const std::uint64_t job = director.define_job("c", "d");
  ASSERT_TRUE(director.submit_version(make_record(job, 1, 0, 10)).ok());
  ASSERT_TRUE(director.submit_version(make_record(job, 2, 100, 10)).ok());
  EXPECT_EQ(director.total_logical_bytes(), 2u * 10 * 8192);
}

TEST(JobVersionRecordTest, AllFingerprintsInStreamOrder) {
  JobVersionRecord rec = make_record(1, 1, 0, 3);
  FileRecord second;
  second.meta.path = "g.dat";
  second.chunk_fps.push_back(Sha1::hash_counter(100));
  second.chunk_sizes.push_back(4096);
  rec.files.push_back(second);

  const auto all = rec.all_fingerprints();
  ASSERT_EQ(all.size(), 4u);
  EXPECT_EQ(all[0], Sha1::hash_counter(0));
  EXPECT_EQ(all[3], Sha1::hash_counter(100));
}

}  // namespace
}  // namespace debar::core
