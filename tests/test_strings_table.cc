/** Unit tests for string helpers and the table renderer. */

#include <gtest/gtest.h>

#include <cstdlib>

#include "common/strings.hh"
#include "common/table.hh"

namespace bsim {
namespace {

TEST(Strings, Strprintf)
{
    EXPECT_EQ(strprintf("%d-%s", 7, "x"), "7-x");
    EXPECT_EQ(strprintf("%.2f", 1.5), "1.50");
    EXPECT_EQ(strprintf("empty"), "empty");
}

TEST(Strings, SizeString)
{
    EXPECT_EQ(sizeString(16 * 1024), "16kB");
    EXPECT_EQ(sizeString(2 * 1024 * 1024), "2MB");
    EXPECT_EQ(sizeString(100), "100B");
    EXPECT_EQ(sizeString(1536), "1536B"); // not a whole number of kB
}

TEST(Strings, Split)
{
    const auto parts = split("a,b,,c", ',');
    ASSERT_EQ(parts.size(), 3u);
    EXPECT_EQ(parts[0], "a");
    EXPECT_EQ(parts[2], "c");
}

TEST(Strings, ToLowerAndStartsWith)
{
    EXPECT_EQ(toLower("MiXeD"), "mixed");
    EXPECT_TRUE(startsWith("bcache-16k", "bcache"));
    EXPECT_FALSE(startsWith("bc", "bcache"));
}

TEST(Strings, Join)
{
    EXPECT_EQ(join({"a", "b", "c"}, ","), "a,b,c");
    EXPECT_EQ(join({}, ","), "");
}

TEST(Strings, ParseCountAcceptsUnsignedDecimalHexAndOctal)
{
    EXPECT_EQ(parseCount("0"), 0u);
    EXPECT_EQ(parseCount("12345"), 12345u);
    EXPECT_EQ(parseCount("0x1F"), 31u);
    EXPECT_EQ(parseCount("0X10"), 16u);
    EXPECT_EQ(parseCount("010"), 8u);
    EXPECT_EQ(parseCount("18446744073709551615"), ~std::uint64_t{0});
}

TEST(Strings, ParseCountRejectsAnythingElse)
{
    for (const char *bad :
         {"", "-1", "+1", " 1", "1 ", "12abc", "1e6", "banana", "0x",
          "08", "1.5", "18446744073709551616", "99999999999999999999"})
        EXPECT_FALSE(parseCount(bad).has_value()) << "'" << bad << "'";
}

TEST(Strings, EnvCountFallsBackOnBadValues)
{
    const char *var = "BSIM_TEST_ENV_COUNT";
    ::unsetenv(var);
    EXPECT_EQ(envCount(var, 7), 7u);
    ::setenv(var, "", 1);
    EXPECT_EQ(envCount(var, 7), 7u);
    ::setenv(var, "42", 1);
    EXPECT_EQ(envCount(var, 7), 42u);
    for (const char *bad : {"-1", "1e6", "12abc", "0"}) {
        ::setenv(var, bad, 1);
        EXPECT_EQ(envCount(var, 7), 7u) << bad;
    }
    // The range is the caller's: 0 may be meaningful, a cap may apply.
    ::setenv(var, "0", 1);
    EXPECT_EQ(envCount(var, 7, 0), 0u);
    ::setenv(var, "9", 1);
    EXPECT_EQ(envCount(var, 7, 1, 8), 7u);
    ::unsetenv(var);
}

TEST(Table, CellsAndAt)
{
    Table t({"bench", "missrate"});
    t.row().cell("gcc").cell(0.123, 3);
    t.row().cell("mcf").cell(std::uint64_t{42});
    EXPECT_EQ(t.numRows(), 2u);
    EXPECT_EQ(t.numCols(), 2u);
    EXPECT_EQ(t.at(0, 0), "gcc");
    EXPECT_EQ(t.at(0, 1), "0.123");
    EXPECT_EQ(t.at(1, 1), "42");
}

TEST(Table, AsciiContainsHeaderAndRule)
{
    Table t({"a", "b"});
    t.row().cell("x").cell(1);
    const std::string s = t.toString();
    EXPECT_NE(s.find("a"), std::string::npos);
    EXPECT_NE(s.find("---"), std::string::npos);
    EXPECT_NE(s.find("x"), std::string::npos);
}

TEST(Table, Csv)
{
    Table t({"a", "b"});
    t.row().cell("x").cell(2);
    EXPECT_EQ(t.toCsv(), "a,b\nx,2\n");
}

TEST(TableDeathTest, TooManyCellsPanics)
{
    Table t({"only"});
    t.row().cell("ok");
    EXPECT_DEATH(t.cell("overflow"), "more cells");
}

} // namespace
} // namespace bsim
