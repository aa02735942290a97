#include <gtest/gtest.h>

#include <string>

#include "common/error.hpp"

namespace sgxo {
namespace {

TEST(Check, PassingCheckIsSilent) {
  EXPECT_NO_THROW(SGXO_CHECK(1 + 1 == 2));
}

TEST(Check, FailingCheckThrowsWithContext) {
  try {
    SGXO_CHECK_MSG(false, "extra context");
    FAIL() << "expected ContractViolation";
  } catch (const ContractViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("false"), std::string::npos);
    EXPECT_NE(what.find("extra context"), std::string::npos);
    EXPECT_NE(what.find("error_test.cpp"), std::string::npos);
  }
}

TEST(Check, PlainCheckThrows) {
  EXPECT_THROW(SGXO_CHECK(false), ContractViolation);
}

TEST(Errors, DomainErrorIsRuntimeError) {
  const DomainError e{"boom"};
  EXPECT_STREQ(e.what(), "boom");
  EXPECT_THROW(throw DomainError{"x"}, std::runtime_error);
}

TEST(Errors, ContractViolationIsLogicError) {
  EXPECT_THROW(throw ContractViolation{"x"}, std::logic_error);
}

}  // namespace
}  // namespace sgxo
