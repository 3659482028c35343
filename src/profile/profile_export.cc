#include "profile/profile_export.h"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <ostream>
#include <string>
#include <vector>

#include "util/csv.h"
#include "util/json.h"

namespace cloudprov {
namespace {

std::string folded_path(const std::vector<ProfileCategory>& path) {
  std::string joined;
  for (std::size_t i = 0; i < path.size(); ++i) {
    if (i != 0) joined += ';';
    joined += to_string(path[i]);
  }
  return joined;
}

struct CounterField {
  const char* name;
  double (*value)(const ProfileSnapshot&);
};

constexpr CounterField kCounterFields[] = {
    {"events_per_second",
     [](const ProfileSnapshot& s) { return s.events_per_second; }},
    {"sim_speedup", [](const ProfileSnapshot& s) { return s.speedup; }},
    {"live_events",
     [](const ProfileSnapshot& s) {
       return static_cast<double>(s.live_events);
     }},
    {"heap_depth",
     [](const ProfileSnapshot& s) {
       return static_cast<double>(s.heap_depth);
     }},
    {"heap_high_water",
     [](const ProfileSnapshot& s) {
       return static_cast<double>(s.heap_high_water);
     }},
    {"slab_high_water",
     [](const ProfileSnapshot& s) {
       return static_cast<double>(s.slab_high_water);
     }},
    {"stale_drops",
     [](const ProfileSnapshot& s) {
       return static_cast<double>(s.stale_drops);
     }},
    {"boxed_pushed",
     [](const ProfileSnapshot& s) {
       return static_cast<double>(s.boxed_pushed);
     }},
    {"executed_events",
     [](const ProfileSnapshot& s) {
       return static_cast<double>(s.executed_events);
     }},
    {"sim_time", [](const ProfileSnapshot& s) { return s.sim_time; }},
};

}  // namespace

void write_profile_csv(std::ostream& out, const WallProfiler& profiler) {
  CsvWriter csv(out);
  csv.write_header({"record", "wall_seconds", "sim_seconds", "name", "value"});
  for (const ProfileSnapshot& snap : profiler.snapshots()) {
    const std::string wall = CsvWriter::format(snap.wall_seconds);
    const std::string sim = CsvWriter::format(snap.sim_time);
    for (const CounterField& field : kCounterFields) {
      csv.write_row({"snapshot", wall, sim, field.name,
                     CsvWriter::format(field.value(snap))});
    }
  }
  const std::string wall_now = CsvWriter::format(profiler.wall_seconds());
  const auto& totals = profiler.totals();
  for (std::size_t i = 0; i < totals.size(); ++i) {
    const auto& stat = totals[i];
    if (stat.count == 0) continue;
    const char* name = to_string(static_cast<ProfileCategory>(i));
    csv.write_row({"category_self", wall_now, "", name,
                   CsvWriter::format(stat.self_seconds)});
    csv.write_row({"category_total", wall_now, "", name,
                   CsvWriter::format(stat.total_seconds)});
    csv.write_row({"category_count", wall_now, "", name,
                   CsvWriter::format(static_cast<std::int64_t>(stat.count))});
  }
}

void write_profile_chrome_trace(std::ostream& out,
                                const WallProfiler& profiler) {
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  auto emit = [&](const std::string& line) {
    if (!first) out << ",\n";
    first = false;
    out << "  " << line;
  };
  emit("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,"
       "\"args\":{\"name\":\"cloudprov wall profile\"}}");
  for (const ProfileSnapshot& snap : profiler.snapshots()) {
    const std::string ts = json_number(snap.wall_seconds * 1e6);
    for (const CounterField& field : kCounterFields) {
      emit("{\"name\":" + json_string(field.name) +
           ",\"ph\":\"C\",\"pid\":0,\"tid\":0,\"ts\":" + ts +
           ",\"args\":{" + json_string(field.name) + ":" +
           json_number(field.value(snap)) + "}}");
    }
  }
  // Category breakdown as complete events laid end-to-end on tid 1: not a
  // real timeline (scopes interleave), but it makes relative subsystem cost
  // visible next to the counter tracks.
  double cursor_us = 0.0;
  const auto& totals = profiler.totals();
  for (std::size_t i = 0; i < totals.size(); ++i) {
    const auto& stat = totals[i];
    if (stat.count == 0) continue;
    const char* name = to_string(static_cast<ProfileCategory>(i));
    const double dur_us = stat.self_seconds * 1e6;
    emit("{\"name\":" + json_string(name) +
         ",\"cat\":\"wall\",\"ph\":\"X\",\"pid\":0,\"tid\":1,\"ts\":" +
         json_number(cursor_us) + ",\"dur\":" + json_number(dur_us) +
         ",\"args\":{\"count\":" +
         json_number(static_cast<double>(stat.count)) + "}}");
    cursor_us += dur_us;
  }
  out << "\n]}\n";
}

void write_folded_stacks(std::ostream& out, const WallProfiler& profiler) {
  for (const WallProfiler::PathStat& row : profiler.folded()) {
    // flamegraph.pl expects integer sample counts; self-microseconds keeps
    // sub-millisecond scopes visible.
    const auto micros =
        static_cast<long long>(std::llround(row.self_seconds * 1e6));
    out << folded_path(row.path) << ' ' << micros << '\n';
  }
}

void write_profile_summary(std::ostream& out, const WallProfiler& profiler,
                           double wall_seconds) {
  struct Row {
    const char* name;
    WallProfiler::CategoryStat stat;
  };
  std::vector<Row> rows;
  const auto& totals = profiler.totals();
  for (std::size_t i = 0; i < totals.size(); ++i) {
    if (totals[i].count == 0) continue;
    rows.push_back({to_string(static_cast<ProfileCategory>(i)), totals[i]});
  }
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    return a.stat.self_seconds > b.stat.self_seconds;
  });

  const double covered = profiler.covered_seconds();
  out << "Wall-time breakdown (" << std::fixed << std::setprecision(3)
      << covered << "s attributed";
  if (wall_seconds > 0.0) {
    out << ", " << std::setprecision(1) << 100.0 * covered / wall_seconds
        << "% of " << std::setprecision(3) << wall_seconds << "s wall";
  }
  out << ")\n";
  out << "  " << std::left << std::setw(18) << "category" << std::right
      << std::setw(12) << "self_s" << std::setw(12) << "total_s"
      << std::setw(12) << "count" << std::setw(9) << "% wall" << '\n';
  for (const Row& row : rows) {
    out << "  " << std::left << std::setw(18) << row.name << std::right
        << std::fixed << std::setprecision(4) << std::setw(12)
        << row.stat.self_seconds << std::setw(12) << row.stat.total_seconds
        << std::setw(12) << row.stat.count << std::setprecision(1)
        << std::setw(8)
        << (wall_seconds > 0.0 ? 100.0 * row.stat.self_seconds / wall_seconds
                               : 0.0)
        << '%' << '\n';
  }
  out.unsetf(std::ios::fixed);
}

}  // namespace cloudprov
