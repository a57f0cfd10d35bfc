#include "obs/events.h"

#include <csignal>
#include <cstdarg>
#include <cstdio>
#include <fcntl.h>
#include <unistd.h>

#include "obs/export.h"
#include "obs/metrics.h"

namespace leopard {
namespace obs {

const char* EventSeverityName(EventSeverity s) {
  switch (s) {
    case EventSeverity::kInfo:
      return "info";
    case EventSeverity::kWarn:
      return "warn";
    case EventSeverity::kError:
      return "error";
  }
  return "unknown";
}

namespace {

size_t RoundUpPow2(size_t n) {
  size_t p = 8;
  while (p < n) p <<= 1;
  return p;
}

void CopyTruncated(char* dst, size_t dst_size, const char* src) {
  size_t i = 0;
  for (; src != nullptr && src[i] != '\0' && i + 1 < dst_size; ++i) {
    dst[i] = src[i];
  }
  dst[i] = '\0';
}

}  // namespace

EventJournal::EventJournal(size_t capacity)
    : capacity_(RoundUpPow2(capacity)),
      mask_(capacity_ - 1),
      slots_(capacity_) {}

EventJournal::~EventJournal() = default;

void EventJournal::Record(EventSeverity severity, const char* component,
                          const char* message) {
  uint64_t seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = slots_[seq & mask_];
  // Mark the slot in-progress. Another writer lapping us (capacity_ events
  // recorded while we fill this slot) can interleave; the version check on
  // the reader side discards the torn result either way, so the journal
  // stays consistent even under that pathological contention.
  //
  // The odd mark is an acquire read-modify-write: the payload stores below
  // cannot move above it, and it synchronizes with a reader's release
  // re-read of the version (Snapshot), so a reader that saw any of this
  // write's payload also sees the version move.
  uint64_t v = slot.version.fetch_or(1, std::memory_order_acquire);
  Event e;
  e.seq = seq;
  e.ts_ns = NowNs();
  e.severity = severity;
  CopyTruncated(e.component, sizeof(e.component), component);
  CopyTruncated(e.message, sizeof(e.message), message);
  uint64_t words[kEventWords];
  std::memcpy(words, &e, sizeof(e));
  for (size_t i = 0; i < kEventWords; ++i) {
    slot.words[i].store(words[i], std::memory_order_relaxed);
  }
  slot.version.store((v | 1) + 1, std::memory_order_release);
}

Event EventJournal::LoadEvent(const Slot& slot) {
  uint64_t words[kEventWords];
  for (size_t i = 0; i < kEventWords; ++i) {
    words[i] = slot.words[i].load(std::memory_order_relaxed);
  }
  Event e;
  std::memcpy(&e, words, sizeof(e));
  return e;
}

void EventJournal::Recordf(EventSeverity severity, const char* component,
                           const char* fmt, ...) {
  char buf[sizeof(Event{}.message)];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  Record(severity, component, buf);
}

std::vector<Event> EventJournal::Snapshot(size_t max_n) const {
  uint64_t end = next_seq_.load(std::memory_order_acquire);
  uint64_t window = max_n < capacity_ ? max_n : capacity_;
  uint64_t begin = end > window ? end - window : 0;
  std::vector<Event> out;
  out.reserve(static_cast<size_t>(end - begin));
  for (uint64_t seq = begin; seq < end; ++seq) {
    const Slot& slot = slots_[seq & mask_];
    uint64_t v1 = slot.version.load(std::memory_order_acquire);
    if (v1 & 1) continue;  // write in progress
    Event e = LoadEvent(slot);
    // Re-read the version with a release RMW that adds nothing (Boehm,
    // "Can seqlocks get along with programming language memory models?",
    // MSPC 2012): release keeps the payload loads above it, and as an RMW
    // it reads the latest version, so it cannot miss a writer whose
    // payload we copied. No standalone fence, which TSan cannot model.
    uint64_t v2 = slot.version.fetch_add(0, std::memory_order_release);
    if (v1 != v2) continue;  // torn: overwritten during the copy
    if (e.seq != seq) continue;  // slot already holds a newer generation
    e.component[sizeof(e.component) - 1] = '\0';
    e.message[sizeof(e.message) - 1] = '\0';
    out.push_back(e);
  }
  return out;
}

std::string EventJournal::ToJson(size_t max_n) const {
  std::vector<Event> events = Snapshot(max_n);
  std::string out = "[";
  bool first = true;
  for (const Event& e : events) {
    if (!first) out += ",";
    first = false;
    out += "{\"seq\":" + std::to_string(e.seq);
    out += ",\"ts_ns\":" + std::to_string(e.ts_ns);
    out += ",\"severity\":\"";
    out += EventSeverityName(e.severity);
    out += "\",\"component\":\"" + JsonEscape(e.component);
    out += "\",\"message\":\"" + JsonEscape(e.message) + "\"}";
  }
  out += "]";
  return out;
}

// ---------------------------------------------------------------------------
// Fatal-signal dump. Everything below must stay async-signal-safe: write(2),
// open(2), close(2) only — no printf, no allocation, no locks.

namespace {

const EventJournal* g_fatal_journal = nullptr;
char g_fatal_path[256] = {0};
const int kFatalSignals[] = {SIGSEGV, SIGBUS, SIGFPE, SIGABRT};

void WriteStr(int fd, const char* s) {
  size_t n = 0;
  while (s[n] != '\0') ++n;
  ssize_t ignored = write(fd, s, n);
  (void)ignored;
}

void WriteU64(int fd, uint64_t v) {
  char buf[21];
  int i = sizeof(buf);
  buf[--i] = '\0';
  do {
    buf[--i] = static_cast<char>('0' + v % 10);
    v /= 10;
  } while (v != 0);
  WriteStr(fd, buf + i);
}

}  // namespace

// Not in the anonymous namespace: declared a friend so it can walk the ring
// directly without going through std::vector-allocating Snapshot().
void FatalDumpLocked(int fd, const EventJournal* j, bool json) {
  if (json) WriteStr(fd, "[");
  uint64_t end = j->next_seq_.load(std::memory_order_acquire);
  uint64_t begin = end > j->capacity_ ? end - j->capacity_ : 0;
  bool first = true;
  for (uint64_t seq = begin; seq < end; ++seq) {
    const EventJournal::Slot& slot = j->slots_[seq & j->mask_];
    if (slot.version.load(std::memory_order_acquire) & 1) continue;
    Event e = EventJournal::LoadEvent(slot);
    if (e.seq != seq) continue;
    e.component[sizeof(e.component) - 1] = '\0';
    e.message[sizeof(e.message) - 1] = '\0';
    if (json) {
      if (!first) WriteStr(fd, ",");
      WriteStr(fd, "{\"seq\":");
      WriteU64(fd, e.seq);
      WriteStr(fd, ",\"ts_ns\":");
      WriteU64(fd, e.ts_ns);
      WriteStr(fd, ",\"severity\":\"");
      WriteStr(fd, EventSeverityName(e.severity));
      WriteStr(fd, "\",\"component\":\"");
      WriteStr(fd, e.component);  // components/messages are internal
      WriteStr(fd, "\",\"message\":\"");
      WriteStr(fd, e.message);  // strings; no quotes to escape
      WriteStr(fd, "\"}");
    } else {
      WriteStr(fd, "[event ");
      WriteU64(fd, e.seq);
      WriteStr(fd, "] ");
      WriteStr(fd, EventSeverityName(e.severity));
      WriteStr(fd, " ");
      WriteStr(fd, e.component);
      WriteStr(fd, ": ");
      WriteStr(fd, e.message);
      WriteStr(fd, "\n");
    }
    first = false;
  }
  if (json) WriteStr(fd, "]\n");
}

namespace {

void FatalSignalHandler(int signo) {
  if (g_fatal_journal != nullptr) {
    WriteStr(2, "\n[leopard] fatal signal ");
    WriteU64(2, static_cast<uint64_t>(signo));
    WriteStr(2, "; event journal (oldest first):\n");
    FatalDumpLocked(2, g_fatal_journal, /*json=*/false);
    if (g_fatal_path[0] != '\0') {
      int fd = open(g_fatal_path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (fd >= 0) {
        FatalDumpLocked(fd, g_fatal_journal, /*json=*/true);
        close(fd);
      }
    }
  }
  std::signal(signo, SIG_DFL);
  raise(signo);
}

}  // namespace

void EventJournal::InstallFatalDump(const EventJournal* journal,
                                    const std::string& path) {
  g_fatal_journal = journal;
  size_t n = path.size() < sizeof(g_fatal_path) - 1 ? path.size()
                                                    : sizeof(g_fatal_path) - 1;
  std::memcpy(g_fatal_path, path.data(), n);
  g_fatal_path[n] = '\0';
  for (int signo : kFatalSignals) {
    std::signal(signo, journal == nullptr ? SIG_DFL : FatalSignalHandler);
  }
}

}  // namespace obs
}  // namespace leopard
