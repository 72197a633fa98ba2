#include "trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <functional>
#include <thread>

#include "common.hpp"
#include "util/check.hpp"

namespace perfbench {

namespace {
/// Open spans of the calling thread, innermost last.
thread_local std::vector<int> t_open;

int thread_tag() {
  return static_cast<int>(
      std::hash<std::thread::id>{}(std::this_thread::get_id()) % 100000);
}
}  // namespace

Tracer::Tracer() : origin_s_(now_seconds()) {}

double Tracer::now_us() const { return (now_seconds() - origin_s_) * 1e6; }

int Tracer::open(std::string name, std::uint64_t id) {
  Span s;
  s.name = std::move(name);
  s.id = id;
  s.parent = t_open.empty() ? -1 : t_open.back();
  s.tid = thread_tag();
  s.start_us = now_us();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(s));
  const int index = static_cast<int>(spans_.size() - 1);
  t_open.push_back(index);
  return index;
}

void Tracer::close(int index) {
  const double end = now_us();
  ODENET_CHECK(!t_open.empty() && t_open.back() == index,
               "spans must close innermost first");
  t_open.pop_back();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(index)].end_us = end;
}

void Tracer::record(std::string name, double start_s, double end_s,
                    std::uint64_t id) {
  Span s;
  s.name = std::move(name);
  s.id = id;
  s.start_us = (start_s - origin_s_) * 1e6;
  s.end_us = (end_s - origin_s_) * 1e6;
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(s));
}

Tracer::Scope::Scope(Tracer& tracer, std::string name, std::uint64_t id)
    : tracer_(tracer), index_(tracer.open(std::move(name), id)) {}

Tracer::Scope::~Scope() { tracer_.close(index_); }

std::map<std::string, double> Tracer::self_seconds() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> child_us(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_us[static_cast<std::size_t>(s.parent)] += s.end_us - s.start_us;
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out[s.name] += (s.end_us - s.start_us - child_us[i]) * 1e-6;
  }
  return out;
}

void Tracer::print_self_times() const {
  std::vector<std::pair<double, std::string>> rows;
  for (const auto& [name, s] : self_seconds()) rows.push_back({s, name});
  std::sort(rows.rbegin(), rows.rend());
  std::printf("self times (s, summed over the traced run):\n");
  for (const auto& [s, name] : rows) {
    std::printf("  %-40s %10.4f\n", name.c_str(), s);
  }
}

std::size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

void Tracer::write_chrome(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream os(path);
  ODENET_CHECK(os.good(), "cannot write trace file " << path);
  os << "{\"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << (i > 0 ? ",\n" : "") << "{\"name\": \"" << s.name
       << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << s.tid
       << ", \"ts\": " << s.start_us << ", \"dur\": " << (s.end_us - s.start_us)
       << ", \"args\": {\"span\": " << i << ", \"parent\": " << s.parent
       << ", \"id\": " << s.id << "}}";
  }
  os << "\n], \"displayTimeUnit\": \"ms\"}\n";
}

}  // namespace perfbench
