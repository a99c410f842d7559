#include "probe.h"

#include <arpa/inet.h>
#include <dirent.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

namespace e2ebench {
namespace {

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  *out = buf.str();
  return true;
}

/// Value of the "<key>:\t<number>" line in a /proc status file, or 0.
uint64_t StatusField(const std::string& status, const std::string& key) {
  // Match from a line start: "voluntary_ctxt_switches" is also a suffix of
  // "nonvoluntary_ctxt_switches".
  const std::string needle = "\n" + key + ":";
  const size_t at = status.find(needle);
  if (at == std::string::npos) return 0;
  return std::strtoull(status.c_str() + at + needle.size(), nullptr, 10);
}

bool PortFree(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return false;
  // The transport binds with SO_REUSEADDR, so a port held only by
  // TIME_WAIT connections counts as free, as it will for the transport.
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  const bool ok =
      ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
  ::close(fd);
  return ok;
}

}  // namespace

ThreadSamples SampleThreads() {
  ThreadSamples samples;
  DIR* dir = ::opendir("/proc/self/task");
  if (dir == nullptr) return samples;
  while (dirent* entry = ::readdir(dir)) {
    if (entry->d_name[0] == '.') continue;
    const pid_t tid = static_cast<pid_t>(std::atol(entry->d_name));
    const std::string base = std::string("/proc/self/task/") + entry->d_name;
    std::string schedstat;
    std::string status;
    // A thread may exit between readdir and the reads; skip it.
    if (!ReadFile(base + "/schedstat", &schedstat) ||
        !ReadFile(base + "/status", &status)) {
      continue;
    }
    ThreadSample s;
    std::istringstream fields(schedstat);
    fields >> s.cpu_ns >> s.runq_ns;
    s.voluntary = StatusField(status, "voluntary_ctxt_switches");
    samples[tid] = s;
  }
  ::closedir(dir);
  return samples;
}

ThreadSample Delta(const ThreadSamples& start, const ThreadSamples& end,
                   const std::set<pid_t>& tids) {
  ThreadSample sum;
  for (pid_t tid : tids) {
    auto a = start.find(tid);
    auto b = end.find(tid);
    if (a == start.end() || b == end.end()) continue;
    sum.cpu_ns += b->second.cpu_ns - a->second.cpu_ns;
    sum.runq_ns += b->second.runq_ns - a->second.runq_ns;
    sum.voluntary += b->second.voluntary - a->second.voluntary;
  }
  return sum;
}

ProcessSample SampleProcess() {
  ProcessSample s;
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  s.cpu_us = uint64_t(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) *
                 1000000 +
             uint64_t(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec);
  s.involuntary = static_cast<uint64_t>(usage.ru_nivcsw);
  std::string stat;
  if (ReadFile("/proc/stat", &stat)) {
    // "cpu  user nice system idle iowait irq softirq steal ..."
    std::istringstream fields(stat);
    std::string label;
    fields >> label;
    uint64_t value = 0;
    for (int column = 0; column < 8 && (fields >> value); ++column) {
      s.host_total += value;
      if (column == 7) s.host_steal = value;
    }
  }
  return s;
}

double PeakRssMb() {
  std::string status;
  if (!ReadFile("/proc/self/status", &status)) return 0;
  return double(StatusField(status, "VmHWM")) / 1024.0;
}

pid_t CurrentTid() { return static_cast<pid_t>(::syscall(SYS_gettid)); }

uint16_t PickFreeBasePort(uint32_t count) {
  uint32_t ephemeral_low = 32768;
  std::string range;
  if (ReadFile("/proc/sys/net/ipv4/ip_local_port_range", &range)) {
    ephemeral_low = static_cast<uint32_t>(std::atol(range.c_str()));
  }
  constexpr uint32_t kLowest = 10000;
  if (ephemeral_low < kLowest + 2 * count) return 0;
  const uint32_t slots = (ephemeral_low - kLowest) / count;
  // Start from a per-process position so concurrent benchmark processes
  // do not race for the same ports; advance on every call so successive
  // clusters in one process never reuse a base.
  static std::atomic<uint32_t> calls{0};
  const uint32_t start =
      uint32_t(::getpid()) * 7919 + calls.fetch_add(1) * 13;
  for (uint32_t i = 0; i < slots; ++i) {
    const uint32_t base = kLowest + ((start + i) % slots) * count;
    bool free = true;
    for (uint32_t p = 0; p < count && free; ++p) {
      free = PortFree(static_cast<uint16_t>(base + p));
    }
    if (free) return static_cast<uint16_t>(base);
  }
  return 0;
}

}  // namespace e2ebench
