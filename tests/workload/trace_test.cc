#include "src/workload/trace.h"

#include <gtest/gtest.h>

#include <sstream>

#include "src/workload/ycsb.h"

namespace cxl::workload {
namespace {

TEST(AccessTraceTest, EmptyTrace) {
  AccessTrace trace;
  EXPECT_TRUE(trace.empty());
  EXPECT_DOUBLE_EQ(trace.WriteFraction(), 0.0);
}

TEST(AccessTraceTest, WriteFractionCountsUpdatesAndInserts) {
  AccessTrace trace;
  trace.Append(YcsbOp{YcsbOp::Type::kRead, 10});
  trace.Append(YcsbOp{YcsbOp::Type::kUpdate, 99});
  trace.Append(YcsbOp{YcsbOp::Type::kRead, 5});
  trace.Append(YcsbOp{YcsbOp::Type::kInsert, 100});
  EXPECT_DOUBLE_EQ(trace.WriteFraction(), 0.5);
}

TEST(AccessTraceTest, CsvRoundTrip) {
  AccessTrace trace;
  trace.Append(YcsbOp{YcsbOp::Type::kRead, 1});
  trace.Append(YcsbOp{YcsbOp::Type::kUpdate, 18446744073709551614ull});
  trace.Append(YcsbOp{YcsbOp::Type::kInsert, 0});
  std::ostringstream os;
  trace.SaveCsv(os);
  std::istringstream is(os.str());
  const auto loaded = AccessTrace::LoadCsv(is);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(static_cast<int>(loaded->at(i).type), static_cast<int>(trace.at(i).type));
    EXPECT_EQ(loaded->at(i).key, trace.at(i).key);
  }
}

TEST(AccessTraceTest, LoadRejectsMissingHeader) {
  std::istringstream is("R,1\n");
  EXPECT_FALSE(AccessTrace::LoadCsv(is).ok());
}

TEST(AccessTraceTest, LoadRejectsBadOpCode) {
  std::istringstream is("op,key\nX,1\n");
  const auto r = AccessTrace::LoadCsv(is);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(AccessTraceTest, LoadRejectsMalformedRow) {
  std::istringstream is("op,key\nR1\n");
  EXPECT_FALSE(AccessTrace::LoadCsv(is).ok());
}

TEST(AccessTraceTest, LoadRejectsBadKey) {
  std::istringstream is("op,key\nR,notakey\n");
  EXPECT_FALSE(AccessTrace::LoadCsv(is).ok());
}

TEST(AccessTraceTest, LoadSkipsBlankLines) {
  std::istringstream is("op,key\nR,1\n\nU,2\n");
  const auto r = AccessTrace::LoadCsv(is);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 2u);
}

TEST(RecordingSourceTest, TeesEveryOp) {
  YcsbGenerator gen(YcsbWorkload::kA, 1000, 42);
  AccessTrace trace;
  RecordingSource rec(gen, trace);
  std::vector<YcsbOp> seen;
  for (int i = 0; i < 500; ++i) {
    seen.push_back(rec.Next());
  }
  ASSERT_EQ(trace.size(), 500u);
  for (size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(trace.at(i).key, seen[i].key);
  }
  EXPECT_DOUBLE_EQ(rec.WriteFraction(), gen.WriteFraction());
}

TEST(TraceReplaySourceTest, ReplaysInOrderAndWraps) {
  AccessTrace trace;
  trace.Append(YcsbOp{YcsbOp::Type::kRead, 1});
  trace.Append(YcsbOp{YcsbOp::Type::kUpdate, 2});
  TraceReplaySource replay(trace);
  EXPECT_EQ(replay.Next().key, 1u);
  EXPECT_EQ(replay.Next().key, 2u);
  EXPECT_EQ(replay.wraps(), 1u);
  EXPECT_EQ(replay.Next().key, 1u);  // Wrapped.
}

TEST(TraceReplaySourceTest, RecordThenReplayIsIdentical) {
  // The record/replay loop: capture a live YCSB stream, replay it, and get
  // the same op sequence (the reproducibility artefact).
  YcsbGenerator gen(YcsbWorkload::kD, 5000, 7);
  AccessTrace trace;
  RecordingSource rec(gen, trace);
  for (int i = 0; i < 2000; ++i) {
    rec.Next();
  }
  TraceReplaySource replay(trace);
  YcsbGenerator gen2(YcsbWorkload::kD, 5000, 7);
  for (int i = 0; i < 2000; ++i) {
    const YcsbOp a = replay.Next();
    const YcsbOp b = gen2.Next();
    ASSERT_EQ(a.key, b.key) << "op " << i;
    ASSERT_EQ(static_cast<int>(a.type), static_cast<int>(b.type)) << "op " << i;
  }
}

}  // namespace
}  // namespace cxl::workload
