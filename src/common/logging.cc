#include "common/logging.hh"

#include <cstdio>
#include <cstdlib>
#include <mutex>

#include "common/thread_annotations.hh"
#include "common/types.hh"

namespace vattn
{

const char *
toString(PageGroup pg)
{
    switch (pg) {
      case PageGroup::k64KB: return "64KB";
      case PageGroup::k128KB: return "128KB";
      case PageGroup::k256KB: return "256KB";
      case PageGroup::k2MB: return "2MB";
    }
    return "?";
}

const char *
toString(PageSize ps)
{
    switch (ps) {
      case PageSize::k4KB: return "4KB";
      case PageSize::k64KB: return "64KB";
      case PageSize::k2MB: return "2MB";
    }
    return "?";
}

namespace log_detail
{

namespace
{

/** Serializes log output and guards the error-mode flag: callers on
 *  different threads (e.g. concurrent ServingCluster::submit clients)
 *  may report through here at once, and interleaved half-lines are
 *  useless in CI logs. */
std::mutex log_mutex;

bool throw_on_error GUARDED_BY(log_mutex) = false;

} // namespace

void
setThrowOnError(bool enable)
{
    std::lock_guard<std::mutex> lock(log_mutex);
    throw_on_error = enable;
}

bool
throwOnError()
{
    std::lock_guard<std::mutex> lock(log_mutex);
    return throw_on_error;
}

void
panicImpl(const char *file, int line, const std::string &msg)
{
    {
        std::lock_guard<std::mutex> lock(log_mutex);
        if (throw_on_error) {
            throw SimError{msg};
        }
        std::fprintf(stderr, "panic: %s (%s:%d)\n", msg.c_str(), file,
                     line);
    }
    std::abort();
}

void
fatalImpl(const char *file, int line, const std::string &msg)
{
    {
        std::lock_guard<std::mutex> lock(log_mutex);
        if (throw_on_error) {
            throw SimError{msg};
        }
        std::fprintf(stderr, "fatal: %s (%s:%d)\n", msg.c_str(), file,
                     line);
    }
    std::exit(1);
}

void
warnImpl(const char *file, int line, const std::string &msg)
{
    std::lock_guard<std::mutex> lock(log_mutex);
    std::fprintf(stderr, "warn: %s (%s:%d)\n", msg.c_str(), file, line);
}

void
informImpl(const std::string &msg)
{
    std::lock_guard<std::mutex> lock(log_mutex);
    std::fprintf(stdout, "info: %s\n", msg.c_str());
}

} // namespace log_detail
} // namespace vattn
