/**
 * @file
 * EXPECT_FATAL(statement, substring): the statement must throw
 * bsim::FatalError (what bsim_fatal raises on a rejected input) with
 * @p substring in its what(). Checked in-process, no death-test fork.
 */

#ifndef BSIM_TESTS_EXPECT_FATAL_HH
#define BSIM_TESTS_EXPECT_FATAL_HH

#include <gtest/gtest.h>

#include <string>

#include "common/logging.hh"

namespace bsim::test {

template <typename F>
::testing::AssertionResult
throwsFatal(F &&f, const std::string &substring)
{
    try {
        f();
    } catch (const FatalError &e) {
        if (std::string(e.what()).find(substring) != std::string::npos)
            return ::testing::AssertionSuccess();
        return ::testing::AssertionFailure()
               << "FatalError '" << e.what() << "' does not contain '"
               << substring << "'";
    }
    return ::testing::AssertionFailure()
           << "no FatalError thrown (want one containing '" << substring
           << "')";
}

} // namespace bsim::test

#define EXPECT_FATAL(statement, substring)                               \
    EXPECT_TRUE(::bsim::test::throwsFatal(                               \
        [&] { static_cast<void>(statement); }, substring))

#endif // BSIM_TESTS_EXPECT_FATAL_HH
