#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "util/cli.h"
#include "util/csv.h"
#include "util/log.h"
#include "util/units.h"

namespace cloudprov {
namespace {

ArgParser make_parser() {
  ArgParser parser("test program");
  parser.add_flag("scale", "1.0", "scale factor", "<double>");
  parser.add_flag("reps", "10", "replications", "<int>");
  parser.add_flag("verbose", "false", "verbose output");
  parser.add_flag("csv", "", "csv output path", "<path>");
  return parser;
}

TEST(ArgParser, Defaults) {
  auto parser = make_parser();
  const char* argv[] = {"prog"};
  ASSERT_TRUE(parser.parse(1, argv));
  EXPECT_EQ(parser.get_double("scale"), 1.0);
  EXPECT_EQ(parser.get_int("reps"), 10);
  EXPECT_FALSE(parser.get_bool("verbose"));
  EXPECT_EQ(parser.get_string("csv"), "");
  EXPECT_FALSE(parser.was_set("scale"));
}

TEST(ArgParser, SpaceSeparatedValues) {
  auto parser = make_parser();
  const char* argv[] = {"prog", "--scale", "0.25", "--reps", "3"};
  ASSERT_TRUE(parser.parse(5, argv));
  EXPECT_EQ(parser.get_double("scale"), 0.25);
  EXPECT_EQ(parser.get_int("reps"), 3);
  EXPECT_TRUE(parser.was_set("scale"));
}

TEST(ArgParser, EqualsSeparatedValues) {
  auto parser = make_parser();
  const char* argv[] = {"prog", "--scale=2.5", "--verbose=true"};
  ASSERT_TRUE(parser.parse(3, argv));
  EXPECT_EQ(parser.get_double("scale"), 2.5);
  EXPECT_TRUE(parser.get_bool("verbose"));
}

TEST(ArgParser, BareAndNegatedBooleans) {
  {
    auto parser = make_parser();
    const char* argv[] = {"prog", "--verbose"};
    ASSERT_TRUE(parser.parse(2, argv));
    EXPECT_TRUE(parser.get_bool("verbose"));
  }
  {
    auto parser = make_parser();
    const char* argv[] = {"prog", "--no-verbose"};
    ASSERT_TRUE(parser.parse(2, argv));
    EXPECT_FALSE(parser.get_bool("verbose"));
  }
}

TEST(ArgParser, SetFlagsListsOnlyGivenFlagsInNameOrder) {
  auto parser = make_parser();
  const char* argv[] = {"prog", "--scale", "2", "--no-verbose", "--csv=x.csv"};
  ASSERT_TRUE(parser.parse(5, argv));
  EXPECT_EQ(parser.set_flags(),
            (std::vector<std::string>{"csv", "scale", "verbose"}));
  EXPECT_TRUE(make_parser().set_flags().empty());
}

TEST(ArgParser, BareBooleanFollowedByFlag) {
  auto parser = make_parser();
  const char* argv[] = {"prog", "--verbose", "--reps", "2"};
  ASSERT_TRUE(parser.parse(4, argv));
  EXPECT_TRUE(parser.get_bool("verbose"));
  EXPECT_EQ(parser.get_int("reps"), 2);
}

TEST(ArgParser, CountRejectsValuesBelowItsMinimum) {
  auto parser = make_parser();
  const char* argv[] = {"prog", "--reps", "-1"};
  ASSERT_TRUE(parser.parse(3, argv));
  try {
    parser.get_count("reps");
    FAIL() << "a negative count must throw";
  } catch (const std::invalid_argument& error) {
    EXPECT_STREQ(error.what(), "--reps must be >= 0, got -1");
  }

  auto zero = make_parser();
  const char* zero_argv[] = {"prog", "--reps", "0"};
  ASSERT_TRUE(zero.parse(3, zero_argv));
  EXPECT_EQ(zero.get_count("reps"), 0u);
  EXPECT_THROW(zero.get_count("reps", 1), std::invalid_argument);
  EXPECT_EQ(make_parser().get_count("reps", 1), 10u);
}

TEST(ArgParser, PositionalArguments) {
  auto parser = make_parser();
  const char* argv[] = {"prog", "input.csv", "--reps", "2", "more"};
  ASSERT_TRUE(parser.parse(5, argv));
  ASSERT_EQ(parser.positional().size(), 2u);
  EXPECT_EQ(parser.positional()[0], "input.csv");
  EXPECT_EQ(parser.positional()[1], "more");
}

TEST(ArgParser, Errors) {
  {
    auto parser = make_parser();
    const char* argv[] = {"prog", "--unknown", "1"};
    EXPECT_THROW(parser.parse(3, argv), std::invalid_argument);
  }
  {
    auto parser = make_parser();
    const char* argv[] = {"prog", "--reps"};
    EXPECT_THROW(parser.parse(2, argv), std::invalid_argument);
  }
  {
    auto parser = make_parser();
    const char* argv[] = {"prog", "--reps", "abc"};
    ASSERT_TRUE(parser.parse(3, argv));
    EXPECT_THROW(parser.get_int("reps"), std::invalid_argument);
  }
  {
    auto parser = make_parser();
    EXPECT_THROW(parser.add_flag("reps", "1", "dup"), std::invalid_argument);
  }
}

TEST(ArgParser, HelpReturnsFalse) {
  auto parser = make_parser();
  const char* argv[] = {"prog", "--help"};
  ::testing::internal::CaptureStdout();
  EXPECT_FALSE(parser.parse(2, argv));
  const std::string help = ::testing::internal::GetCapturedStdout();
  EXPECT_NE(help.find("--scale"), std::string::npos);
  EXPECT_NE(help.find("scale factor"), std::string::npos);
}

TEST(CsvWriter, QuotesSpecialFields) {
  std::ostringstream out;
  CsvWriter writer(out);
  writer.write_row({"plain", "with,comma", "with\"quote", "with\nnewline"});
  EXPECT_EQ(out.str(),
            "plain,\"with,comma\",\"with\"\"quote\",\"with\nnewline\"\n");
}

TEST(CsvRoundTrip, PreservesFields) {
  std::ostringstream out;
  CsvWriter writer(out);
  writer.write_header({"a", "b", "c"});
  writer.write_row({"1,5", "x\"y", "plain"});
  std::istringstream in(out.str());
  CsvReader reader(in);
  auto header = reader.next_row();
  ASSERT_TRUE(header.has_value());
  EXPECT_EQ((*header)[0], "a");
  auto row = reader.next_row();
  ASSERT_TRUE(row.has_value());
  EXPECT_EQ((*row)[0], "1,5");
  EXPECT_EQ((*row)[1], "x\"y");
  EXPECT_EQ((*row)[2], "plain");
  EXPECT_FALSE(reader.next_row().has_value());
}

TEST(CsvReader, HandlesCrLf) {
  std::istringstream in("a,b\r\nc,d\r\n");
  CsvReader reader(in);
  auto row = reader.next_row();
  ASSERT_TRUE(row.has_value());
  EXPECT_EQ((*row)[1], "b");
}

TEST(CsvWriter, DoubleFormatRoundTrips) {
  const double value = 0.1234567890123456789;
  const std::string text = CsvWriter::format(value);
  EXPECT_EQ(std::stod(text), value);
}

TEST(Logger, ParseLevels) {
  EXPECT_EQ(Logger::parse_level("debug"), LogLevel::kDebug);
  EXPECT_EQ(Logger::parse_level("off"), LogLevel::kOff);
  EXPECT_THROW(Logger::parse_level("bogus"), std::invalid_argument);
}

TEST(Logger, LevelGating) {
  Logger& log = Logger::instance();
  const LogLevel original = log.level();
  log.set_level(LogLevel::kError);
  EXPECT_FALSE(log.enabled(LogLevel::kInfo));
  EXPECT_TRUE(log.enabled(LogLevel::kError));
  log.set_level(original);
}

TEST(Units, SecondsIntoDayAndDayIndex) {
  EXPECT_EQ(seconds_into_day(0.0), 0.0);
  EXPECT_EQ(seconds_into_day(3600.0), 3600.0);
  EXPECT_EQ(seconds_into_day(86400.0), 0.0);
  EXPECT_EQ(seconds_into_day(2.0 * 86400.0 + 100.0), 100.0);
  EXPECT_EQ(day_index(0.0), 0);
  EXPECT_EQ(day_index(86399.0), 0);
  EXPECT_EQ(day_index(86400.0), 1);
  EXPECT_EQ(day_index(6.5 * 86400.0), 6);
}

TEST(Units, DurationConstantsAreConsistent) {
  EXPECT_EQ(duration::kMinute, 60.0 * duration::kSecond);
  EXPECT_EQ(duration::kHour, 60.0 * duration::kMinute);
  EXPECT_EQ(duration::kDay, 24.0 * duration::kHour);
  EXPECT_EQ(duration::kWeek, 7.0 * duration::kDay);
}

TEST(CsvEdge, IntegerFormatAndQuotedOnlyField) {
  EXPECT_EQ(CsvWriter::format(std::int64_t{-42}), "-42");
  std::istringstream in("\"a,b\"\n");
  CsvReader reader(in);
  const auto row = reader.next_row();
  ASSERT_TRUE(row.has_value());
  ASSERT_EQ(row->size(), 1u);
  EXPECT_EQ((*row)[0], "a,b");
}

}  // namespace
}  // namespace cloudprov
