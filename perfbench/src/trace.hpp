// In-memory span recorder for the traced run. A span is opened around a
// call into one layer (from the benchmark's own files) and records its
// name, start, end, the span that was open on the same thread when it
// began, and the request or batch id it belongs to. Spans are written out
// as Chrome trace-event JSON when the run ends; self time is a span's
// duration minus the part of it its child spans cover.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  struct Span {
    std::string name;
    double start_us = 0.0;
    double end_us = 0.0;
    int parent = -1;
    std::uint64_t id = 0;
    int tid = 0;
  };

  /// RAII span; closing it records the end time.
  class Scope {
   public:
    Scope(Tracer& tracer, std::string name, std::uint64_t id = 0);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    int index_;
  };

  Tracer();

  /// Records a span measured elsewhere (e.g. a request's round trip, which
  /// starts on one thread and ends on another); times are now_seconds().
  void record(std::string name, double start_s, double end_s,
              std::uint64_t id);

  /// Sum of self times per span name, seconds.
  std::map<std::string, double> self_seconds() const;
  /// Prints the self-time table, largest first.
  void print_self_times() const;
  std::size_t size() const;
  /// Writes the Chrome trace-event JSON file (complete "X" events).
  void write_chrome(const std::string& path) const;

 private:
  int open(std::string name, std::uint64_t id);
  void close(int index);
  double now_us() const;

  double origin_s_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

}  // namespace perfbench
