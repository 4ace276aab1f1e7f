#include "sim/sim_object.h"

#include <cstdarg>
#include <cstdio>
#include <vector>

#include "sim/logging.h"

namespace hiss {

SimObject::SimObject(SimContext &ctx, std::string name, SiteKinds sites)
    : ctx_(ctx), name_(std::move(name)), sites_(sites),
      rng_(ctx.seed, name_)
{
}

void
SimObject::fire(const snap::Tag &tag)
{
    panic("%s: no event site '%s'", name_.c_str(),
          tag.self.kind != nullptr ? tag.self.kind : "");
}

void
SimObject::trace(const char *fmt, ...) const
{
    if (!logging::traceEnabled(name_))
        return;
    va_list ap;
    va_start(ap, fmt);
    const int n = std::vsnprintf(nullptr, 0, fmt, ap);
    va_end(ap);
    if (n <= 0)
        return;
    std::vector<char> buf(static_cast<size_t>(n) + 1);
    va_start(ap, fmt);
    std::vsnprintf(buf.data(), buf.size(), fmt, ap);
    va_end(ap);
    tracef(name_, ctx_.events.now(), "%s", buf.data());
}

} // namespace hiss
