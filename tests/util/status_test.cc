#include "util/status.h"

#include <gtest/gtest.h>

#include "util/macros.h"
#include "util/result.h"

namespace ngram {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
  EXPECT_TRUE(s.message().empty());
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::IOError("disk on fire");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsIOError());
  EXPECT_EQ(s.code(), StatusCode::kIOError);
  EXPECT_EQ(s.message(), "disk on fire");
  EXPECT_EQ(s.ToString(), "IOError: disk on fire");
}

TEST(StatusTest, AllFactoriesProduceMatchingCodes) {
  EXPECT_EQ(Status::InvalidArgument("x").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::Corruption("x").code(), StatusCode::kCorruption);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::ResourceExhausted("x").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::Cancelled("x").code(), StatusCode::kCancelled);
  EXPECT_EQ(Status::NotImplemented("x").code(),
            StatusCode::kNotImplemented);
}

TEST(StatusTest, CopyAndMovePreserveState) {
  Status s = Status::NotFound("missing");
  Status copy = s;
  EXPECT_TRUE(copy.IsNotFound());
  EXPECT_EQ(copy.message(), "missing");
  Status moved = std::move(s);
  EXPECT_TRUE(moved.IsNotFound());

  Status ok;
  Status ok_copy = ok;
  EXPECT_TRUE(ok_copy.ok());
}

TEST(StatusTest, WithContextPrefixesMessage) {
  Status s = Status::IOError("write failed").WithContext("spill file");
  EXPECT_TRUE(s.IsIOError());
  EXPECT_EQ(s.message(), "spill file: write failed");
  EXPECT_TRUE(Status().WithContext("ignored").ok());
}

TEST(StatusTest, PathTravelsWithCopiesAndContextButIsNotPrinted) {
  const Status s =
      Status::Corruption("bad sector").WithPath("/work/map-0-a0-000000.run");
  EXPECT_TRUE(s.IsCorruption());
  EXPECT_EQ(s.path(), "/work/map-0-a0-000000.run");
  const Status wrapped = s.WithContext("read run block");
  EXPECT_EQ(wrapped.path(), s.path());
  EXPECT_EQ(wrapped.ToString(), "Corruption: read run block: bad sector");
  const Status copy = wrapped;
  EXPECT_EQ(copy.path(), s.path());
  EXPECT_TRUE(Status::IOError("no file named").path().empty());
  EXPECT_TRUE(Status().WithPath("ignored").ok());
  EXPECT_TRUE(Status().path().empty());
}

Status FailingHelper() { return Status::Corruption("bad bytes"); }

Status PropagatingHelper() {
  NGRAM_RETURN_NOT_OK(FailingHelper());
  return Status::OK();
}

TEST(StatusTest, ReturnNotOkMacroPropagates) {
  EXPECT_TRUE(PropagatingHelper().IsCorruption());
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("nope"));
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
}

Result<int> MakeValue(bool fail) {
  if (fail) {
    return Status::InvalidArgument("fail requested");
  }
  return 7;
}

Status ConsumeResult(bool fail, int* out) {
  NGRAM_ASSIGN_OR_RETURN(*out, MakeValue(fail));
  return Status::OK();
}

TEST(ResultTest, AssignOrReturnMacro) {
  int v = 0;
  EXPECT_TRUE(ConsumeResult(false, &v).ok());
  EXPECT_EQ(v, 7);
  EXPECT_TRUE(ConsumeResult(true, &v).IsInvalidArgument());
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r(std::make_unique<int>(5));
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> owned = std::move(r).ValueOrDie();
  EXPECT_EQ(*owned, 5);
}

}  // namespace
}  // namespace ngram
