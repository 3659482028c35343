#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "util/log.h"

namespace cloudprov {
namespace {

// The Logger is a process-global singleton; every test restores the default
// configuration (warn level, stderr sink, no time provider on the test
// thread) on exit.
class LoggerTest : public ::testing::Test {
 protected:
  void TearDown() override {
    Logger& logger = Logger::instance();
    logger.set_level(LogLevel::kWarn);
    logger.set_sink(nullptr);
    logger.set_time_provider(nullptr);
  }
};

TEST_F(LoggerTest, ParseLevelCoversAllNames) {
  EXPECT_EQ(Logger::parse_level("trace"), LogLevel::kTrace);
  EXPECT_EQ(Logger::parse_level("debug"), LogLevel::kDebug);
  EXPECT_EQ(Logger::parse_level("info"), LogLevel::kInfo);
  EXPECT_EQ(Logger::parse_level("warn"), LogLevel::kWarn);
  EXPECT_EQ(Logger::parse_level("error"), LogLevel::kError);
  EXPECT_EQ(Logger::parse_level("off"), LogLevel::kOff);
  EXPECT_THROW(Logger::parse_level("verbose"), std::invalid_argument);
  EXPECT_THROW(Logger::parse_level(""), std::invalid_argument);
  EXPECT_THROW(Logger::parse_level("WARN"), std::invalid_argument);
}

TEST_F(LoggerTest, EnabledRespectsThreshold) {
  Logger& logger = Logger::instance();
  logger.set_level(LogLevel::kInfo);
  EXPECT_FALSE(logger.enabled(LogLevel::kTrace));
  EXPECT_FALSE(logger.enabled(LogLevel::kDebug));
  EXPECT_TRUE(logger.enabled(LogLevel::kInfo));
  EXPECT_TRUE(logger.enabled(LogLevel::kError));

  logger.set_level(LogLevel::kOff);
  EXPECT_FALSE(logger.enabled(LogLevel::kError));
}

TEST_F(LoggerTest, SinkRedirectionAndLevelGating) {
  Logger& logger = Logger::instance();
  std::ostringstream captured;
  logger.set_sink(&captured);
  logger.set_level(LogLevel::kInfo);

  CLOUDPROV_LOG(Info) << "hello " << 42;
  CLOUDPROV_LOG(Debug) << "should be suppressed";

  const std::string text = captured.str();
  EXPECT_NE(text.find("[INFO] hello 42"), std::string::npos);
  EXPECT_EQ(text.find("suppressed"), std::string::npos);
}

TEST_F(LoggerTest, DisabledLevelDoesNotEvaluateStreamArguments) {
  Logger& logger = Logger::instance();
  std::ostringstream captured;
  logger.set_sink(&captured);
  logger.set_level(LogLevel::kWarn);
  int evaluations = 0;
  auto expensive = [&evaluations] {
    ++evaluations;
    return "value";
  };
  CLOUDPROV_LOG(Debug) << expensive();
  EXPECT_EQ(evaluations, 0);
  CLOUDPROV_LOG(Error) << expensive();
  EXPECT_EQ(evaluations, 1);
}

TEST_F(LoggerTest, TimeProviderPrefixesLines) {
  Logger& logger = Logger::instance();
  std::ostringstream captured;
  logger.set_sink(&captured);
  logger.set_level(LogLevel::kInfo);
  logger.set_time_provider([] { return 12.5; });

  CLOUDPROV_LOG(Info) << "tick";
  EXPECT_NE(captured.str().find("[t=12.5] tick"), std::string::npos);

  logger.set_time_provider(nullptr);
  captured.str("");
  CLOUDPROV_LOG(Info) << "tock";
  EXPECT_EQ(captured.str().find("[t="), std::string::npos);
}

TEST_F(LoggerTest, TimeProviderPrefixesOnlyItsOwnThread) {
  Logger& logger = Logger::instance();
  std::ostringstream captured;
  logger.set_sink(&captured);
  logger.set_level(LogLevel::kInfo);
  logger.set_time_provider([] { return 7.5; });

  std::thread([] { CLOUDPROV_LOG(Info) << "worker"; }).join();
  CLOUDPROV_LOG(Info) << "caller";
  const std::string text = captured.str();
  EXPECT_NE(text.find("[INFO] worker"), std::string::npos);
  EXPECT_NE(text.find("[INFO] [t=7.5] caller"), std::string::npos);
}

TEST_F(LoggerTest, FileSinkWritesAndTruncates) {
  Logger& logger = Logger::instance();
  const std::string path = "util_log_test_sink.txt";
  ASSERT_TRUE(logger.set_sink_file(path));
  logger.set_level(LogLevel::kInfo);
  CLOUDPROV_LOG(Info) << "to file";
  logger.set_sink(nullptr);  // closes the file

  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "[INFO] to file");
  in.close();
  std::remove(path.c_str());
}

TEST_F(LoggerTest, SinkFileFailureLeavesSinkUnchanged) {
  Logger& logger = Logger::instance();
  std::ostringstream captured;
  logger.set_sink(&captured);
  logger.set_level(LogLevel::kInfo);
  EXPECT_FALSE(logger.set_sink_file("/nonexistent-dir/log.txt"));
  CLOUDPROV_LOG(Info) << "still here";
  EXPECT_NE(captured.str().find("still here"), std::string::npos);
}

}  // namespace
}  // namespace cloudprov
