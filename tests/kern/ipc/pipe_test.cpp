#include "kern/ipc/pipe.h"

#include <gtest/gtest.h>

namespace overhaul::kern {
namespace {

using util::Code;

class PipeTest : public ::testing::Test {
 protected:
  IpcPolicy policy_{true};
  TaskStruct writer_{.pid = 1, .comm = "w"};
  TaskStruct reader_{.pid = 2, .comm = "r"};
};

TEST_F(PipeTest, RoundTripBytes) {
  Pipe pipe(policy_);
  pipe.add_reader();
  pipe.add_writer();
  ASSERT_TRUE(pipe.write(writer_, "hello world").is_ok());
  auto out = pipe.read(reader_, 64);
  ASSERT_TRUE(out.is_ok());
  EXPECT_EQ(out.value(), "hello world");
}

TEST_F(PipeTest, PartialReads) {
  Pipe pipe(policy_);
  pipe.add_reader();
  pipe.add_writer();
  ASSERT_TRUE(pipe.write(writer_, "abcdef").is_ok());
  EXPECT_EQ(pipe.read(reader_, 3).value(), "abc");
  EXPECT_EQ(pipe.read(reader_, 3).value(), "def");
}

TEST_F(PipeTest, CapacityLimitsWrite) {
  Pipe pipe(policy_, 8);
  pipe.add_reader();
  pipe.add_writer();
  auto n = pipe.write(writer_, "0123456789");
  ASSERT_TRUE(n.is_ok());
  EXPECT_EQ(n.value(), 8u);  // partial write at capacity
  EXPECT_EQ(pipe.write(writer_, "x").code(), Code::kWouldBlock);
  ASSERT_TRUE(pipe.read(reader_, 4).is_ok());
  EXPECT_EQ(pipe.write(writer_, "xy").value(), 2u);
}

TEST_F(PipeTest, EmptyPipeWouldBlockWhileWritersExist) {
  Pipe pipe(policy_);
  pipe.add_reader();
  pipe.add_writer();
  EXPECT_EQ(pipe.read(reader_, 8).code(), Code::kWouldBlock);
}

TEST_F(PipeTest, EofWhenAllWritersClosed) {
  Pipe pipe(policy_);
  pipe.add_reader();
  pipe.add_writer();
  ASSERT_TRUE(pipe.write(writer_, "tail").is_ok());
  pipe.close_writer();
  EXPECT_EQ(pipe.read(reader_, 8).value(), "tail");
  EXPECT_EQ(pipe.read(reader_, 8).value(), "");  // EOF
}

TEST_F(PipeTest, EpipeWhenNoReaders) {
  Pipe pipe(policy_);
  pipe.add_writer();
  EXPECT_EQ(pipe.write(writer_, "x").code(), Code::kBrokenChannel);
}

// P2: write stamps the channel, read adopts the stamp.
TEST_F(PipeTest, TimestampPropagation) {
  Pipe pipe(policy_);
  pipe.add_reader();
  pipe.add_writer();
  writer_.interaction_ts = sim::Timestamp{42};
  ASSERT_TRUE(pipe.write(writer_, "data").is_ok());
  EXPECT_EQ(pipe.stamp().ns, 42);
  ASSERT_TRUE(pipe.read(reader_, 8).is_ok());
  EXPECT_EQ(reader_.interaction_ts.ns, 42);
}

TEST_F(PipeTest, FresherChannelStampWins) {
  Pipe pipe(policy_);
  pipe.add_reader();
  pipe.add_writer();
  writer_.interaction_ts = sim::Timestamp{100};
  ASSERT_TRUE(pipe.write(writer_, "a").is_ok());
  TaskStruct stale_writer{.pid = 3};
  stale_writer.interaction_ts = sim::Timestamp{10};
  ASSERT_TRUE(pipe.write(stale_writer, "b").is_ok());
  EXPECT_EQ(pipe.stamp().ns, 100);  // channel keeps the fresher stamp
}

TEST_F(PipeTest, NoPropagationAtBaseline) {
  IpcPolicy off{false};
  Pipe pipe(off);
  pipe.add_reader();
  pipe.add_writer();
  writer_.interaction_ts = sim::Timestamp{42};
  ASSERT_TRUE(pipe.write(writer_, "data").is_ok());
  ASSERT_TRUE(pipe.read(reader_, 8).is_ok());
  EXPECT_TRUE(reader_.interaction_ts.is_never());
  EXPECT_TRUE(pipe.stamp().is_never());
}

// Thousands of cycles that write k bytes and read fewer leave the pipe at
// capacity with its read offset moving: the bytes come out in order, the
// buffer never holds more than capacity(), and compaction keeps the
// storage within 4 × capacity(). Drained to empty, the pipe takes the next
// job's message, as a FIFO reused across jobs does.
TEST_F(PipeTest, StorageStaysBoundedAcrossCycles) {
  Pipe pipe(policy_, 1024);
  pipe.add_reader();
  pipe.add_writer();
  std::string written;
  std::string read;
  int short_writes = 0;
  for (int cycle = 0; cycle < 5000; ++cycle) {
    const std::size_t k = 2 + static_cast<std::size_t>(cycle % 97);
    const std::string chunk(k, static_cast<char>('a' + cycle % 26));
    auto n = pipe.write(writer_, chunk);
    if (n.is_ok()) {
      written.append(chunk, 0, n.value());
      short_writes += n.value() < k;
    } else {
      ASSERT_EQ(n.code(), Code::kWouldBlock);
      ++short_writes;
    }
    auto out = pipe.read(reader_, k - 1);
    ASSERT_TRUE(out.is_ok());
    read += out.value();
    ASSERT_LE(pipe.buffered(), pipe.capacity());
    ASSERT_LE(pipe.bytes(), 4 * pipe.capacity());
  }
  EXPECT_GT(short_writes, 1000);  // the reader fell behind to capacity
  while (pipe.buffered() > 0) read += pipe.read(reader_, 100).value();
  EXPECT_EQ(read, written);

  ASSERT_EQ(pipe.write(writer_, "next job").value_or(0), 8u);
  EXPECT_EQ(pipe.read(reader_, 64).value_or("?"), "next job");
  EXPECT_EQ(pipe.read(reader_, 64).code(), Code::kWouldBlock);
}

TEST_F(PipeTest, PipeEndRaiiMaintainsCounts) {
  auto pipe = std::make_shared<Pipe>(policy_);
  {
    PipeEnd r(pipe, PipeEnd::Dir::kRead);
    PipeEnd w(pipe, PipeEnd::Dir::kWrite);
    EXPECT_EQ(pipe->readers(), 1);
    EXPECT_EQ(pipe->writers(), 1);
  }
  EXPECT_EQ(pipe->readers(), 0);
  EXPECT_EQ(pipe->writers(), 0);
}

}  // namespace
}  // namespace overhaul::kern
