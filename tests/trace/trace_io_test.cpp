#include "trace/trace_io.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>

#include "trace/coarse_generator.hpp"

namespace ll::trace {
namespace {

TEST(CoarseIo, RoundTripStream) {
  CoarseTrace t(2.0);
  t.push({0.25, 1234, true});
  t.push({0.0, 65536, false});
  t.push({1.0, 0, true});
  std::stringstream buf;
  save_coarse(t, buf);
  const CoarseTrace back = load_coarse(buf);
  ASSERT_EQ(back.size(), t.size());
  EXPECT_DOUBLE_EQ(back.period(), 2.0);
  for (std::size_t i = 0; i < t.size(); ++i) {
    EXPECT_DOUBLE_EQ(back.samples()[i].cpu, t.samples()[i].cpu);
    EXPECT_EQ(back.samples()[i].mem_free_kb, t.samples()[i].mem_free_kb);
    EXPECT_EQ(back.samples()[i].keyboard, t.samples()[i].keyboard);
  }
}

TEST(CoarseIo, PreservesNonDefaultPeriod) {
  CoarseTrace t(0.5);
  t.push({0.1, 10, false});
  std::stringstream buf;
  save_coarse(t, buf);
  EXPECT_DOUBLE_EQ(load_coarse(buf).period(), 0.5);
}

TEST(CoarseIo, RoundTripFile) {
  const std::string path = ::testing::TempDir() + "/ll_coarse_io.trace";
  const CoarseGenConfig cfg{.duration = 600.0};
  const CoarseTrace t = generate_coarse_trace(cfg, rng::Stream(5));
  save_coarse(t, path);
  const CoarseTrace back = load_coarse(path);
  ASSERT_EQ(back.size(), t.size());
  for (std::size_t i = 0; i < t.size(); i += 17) {
    EXPECT_EQ(back.samples()[i].mem_free_kb, t.samples()[i].mem_free_kb);
  }
  std::remove(path.c_str());
}

TEST(CoarseIo, SkipsCommentsAndBlankLines) {
  std::stringstream buf(
      "# ll-coarse-trace v1 period=2\n"
      "0.5 1000 1\n"
      "\n"
      "# a comment\n"
      "0.1 2000 0\n");
  const CoarseTrace t = load_coarse(buf);
  EXPECT_EQ(t.size(), 2u);
}

TEST(CoarseIo, RejectsBadHeader) {
  std::stringstream buf("not a trace\n0.5 1000 1\n");
  EXPECT_THROW((void)(load_coarse(buf)), std::runtime_error);
}

TEST(CoarseIo, RejectsBadPeriod) {
  // 1e-300 used to stall a cluster run that replayed the trace, inf failed
  // inside the event engine, and abc surfaced as a bare "stod".
  for (const std::string bad :
       {"1e-300", "inf", "abc", "2abc", "nan", "1e-400", "0", "-2", ""}) {
    std::stringstream buf("# ll-coarse-trace v1 period=" + bad +
                          "\n0.5 1000 1\n");
    try {
      (void)load_coarse(buf);
      ADD_FAILURE() << "accepted period '" << bad << "'";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()),
                "coarse trace: bad period '" + bad + "'");
    }
  }
  // The 1 ms floor itself, and a header ending in CRLF, still load.
  for (const std::string good : {"0.001", "2\r"}) {
    std::stringstream buf("# ll-coarse-trace v1 period=" + good +
                          "\n0.5 1000 1\n");
    EXPECT_EQ(load_coarse(buf).size(), 1u) << good;
  }
}

TEST(CoarseIo, RejectsEmptyInput) {
  std::stringstream buf;
  EXPECT_THROW((void)(load_coarse(buf)), std::runtime_error);
}

TEST(CoarseIo, RejectsMalformedLine) {
  std::stringstream buf("# ll-coarse-trace v1 period=2\n0.5 oops 1\n");
  EXPECT_THROW((void)(load_coarse(buf)), std::runtime_error);
}

TEST(CoarseIo, RejectsBadKeyboardFlag) {
  std::stringstream buf("# ll-coarse-trace v1 period=2\n0.5 100 7\n");
  EXPECT_THROW((void)(load_coarse(buf)), std::runtime_error);
}

TEST(CoarseIo, MissingFileThrows) {
  EXPECT_THROW((void)(load_coarse("/nonexistent/xyz.trace")), std::runtime_error);
}

TEST(FineIo, RoundTrip) {
  FineTrace t;
  t.push(BurstKind::Idle, 0.0125);
  t.push(BurstKind::Run, 0.05);
  t.push(BurstKind::Idle, 1.5);
  std::stringstream buf;
  save_fine(t, buf);
  const FineTrace back = load_fine(buf);
  ASSERT_EQ(back.size(), 3u);
  EXPECT_EQ(back.bursts()[0].kind, BurstKind::Idle);
  EXPECT_EQ(back.bursts()[1].kind, BurstKind::Run);
  EXPECT_DOUBLE_EQ(back.bursts()[1].duration, 0.05);
  EXPECT_DOUBLE_EQ(back.duration(), t.duration());
}

TEST(FineIo, RejectsBadHeader) {
  std::stringstream buf("garbage\nR 0.5\n");
  EXPECT_THROW((void)(load_fine(buf)), std::runtime_error);
}

TEST(FineIo, RejectsUnknownKind) {
  std::stringstream buf("# ll-fine-trace v1\nX 0.5\n");
  EXPECT_THROW((void)(load_fine(buf)), std::runtime_error);
}

TEST(FineIo, RejectsNegativeDuration) {
  std::stringstream buf("# ll-fine-trace v1\nR -0.5\n");
  EXPECT_THROW((void)(load_fine(buf)), std::runtime_error);
}

TEST(FineIo, RoundTripFile) {
  const std::string path = ::testing::TempDir() + "/ll_fine_io.trace";
  FineTrace t;
  t.push(BurstKind::Run, 0.1);
  save_fine(t, path);
  EXPECT_EQ(load_fine(path).size(), 1u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ll::trace
