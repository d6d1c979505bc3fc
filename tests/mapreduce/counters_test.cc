#include "mapreduce/counters.h"

#include <gtest/gtest.h>

#include <string>

namespace ngram::mr {
namespace {

TEST(TaskCountersTest, EqualNameAtDifferentAddressSharesOneEntry) {
  // Same text as the interned constant, at another address. Declared
  // before the TaskCounters so it outlives the destructor's Flush().
  const std::string copy(kMapOutputRecords);
  ASSERT_NE(static_cast<const void*>(copy.c_str()),
            static_cast<const void*>(kMapOutputRecords));
  Counters counters;
  {
    TaskCounters tc(&counters);
    tc.Increment(copy.c_str(), 3);
    tc.Increment(kMapOutputBytes, 7);
    tc.Increment(kMapOutputRecords, 2);
    tc.Increment(copy.c_str());
    EXPECT_EQ(tc.num_pending(), 2u);
  }
  EXPECT_EQ(counters.Get(kMapOutputRecords), 6u);
  EXPECT_EQ(counters.Get(kMapOutputBytes), 7u);
  EXPECT_EQ(counters.Snapshot().size(), 2u);
}

TEST(TaskCountersTest, DiscardPendingDropsEveryEntry) {
  Counters counters;
  TaskCounters tc(&counters);
  tc.Increment(kReduceInputGroups, 4);
  tc.Increment(kReduceInputRecords, 9);
  tc.DiscardPending();
  EXPECT_EQ(tc.num_pending(), 0u);
  tc.Increment(kReduceInputGroups, 0);  // Zero deltas publish nothing.
  tc.Flush();
  EXPECT_TRUE(counters.Snapshot().empty());
}

}  // namespace
}  // namespace ngram::mr
