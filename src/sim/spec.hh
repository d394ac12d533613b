/**
 * @file
 * The one reader behind the four key=value spec flags (--fault-spec,
 * --qos-spec, --chaos-spec, --pool-spec): it splits the items, parses
 * their numbers and runs the spec's validate(), so each spec's parse()
 * is only its list of keys.
 */

#ifndef CXLMEMO_SIM_SPEC_HH
#define CXLMEMO_SIM_SPEC_HH

#include <charconv>
#include <cstdlib>
#include <optional>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "sim/types.hh"

namespace cxlmemo
{

/** @p v as a plain decimal that fits @p out's type: no sign, no blank
 *  and nothing above the type's maximum, so a value never wraps or
 *  narrows on its way into a field. @p out is untouched on failure. */
template <typename T>
bool
parseSpecValue(const std::string &v, T &out)
{
    static_assert(std::is_unsigned_v<T>, "spec integers are unsigned");
    const char *end = v.data() + v.size();
    const auto [at, ec] = std::from_chars(v.data(), end, out);
    return ec == std::errc() && at == end;
}

/** @p v as a floating-point number, read whole by strtod. */
inline bool
parseSpecValue(const std::string &v, double &out)
{
    if (v.empty())
        return false;
    char *end = nullptr;
    const double d = std::strtod(v.c_str(), &end);
    if (end != v.c_str() + v.size())
        return false;
    out = d;
    return true;
}

/** Whether @p ns, a spec's time or duration in ns, converts to ticks
 *  without overflow (ticksFromNs is undefined at 2^64 ticks and up).
 *  NaN and negative values fail. */
constexpr bool
fitsTicks(double ns)
{
    return ns >= 0.0 && ns * static_cast<double>(tickPerNs) + 0.5 < 0x1p64;
}

/** Throw std::invalid_argument, naming @p key of @p spec, unless @p ns
 *  passes fitsTicks(). */
inline void
requireTicks(const char *spec, const char *key, double ns)
{
    if (!fitsTicks(ns)) {
        throw std::invalid_argument(std::string(spec) + ": " + key
                                    + " must be in [0, 1.8e16] ns");
    }
}

/** @p v as a positive duration in ns, stored as ticks. */
inline bool
parseSpecNs(const std::string &v, Tick &out)
{
    double ns = 0.0;
    if (!parseSpecValue(v, ns) || !(ns > 0.0) || !fitsTicks(ns))
        return false;
    out = ticksFromNs(ns);
    return true;
}

/**
 * Parse @p text, comma-separated key=value items (empty items are
 * skipped), into a default-constructed Spec. @p apply(spec, key,
 * value) applies one item and returns false to reject it; the error
 * is then "bad <name> item: <item>" unless @p apply set @p error
 * itself. An item without '=' fails with "<name> item needs
 * key=value: <item>". The finished spec must pass validate(), whose
 * message becomes @p error.
 */
template <typename Spec, typename Apply>
std::optional<Spec>
parseSpec(const std::string &text, const char *name, std::string &error,
          Apply &&apply)
{
    Spec spec;
    error.clear();
    std::size_t pos = 0;
    while (pos < text.size()) {
        std::size_t comma = text.find(',', pos);
        if (comma == std::string::npos)
            comma = text.size();
        const std::string item = text.substr(pos, comma - pos);
        pos = comma + 1;
        if (item.empty())
            continue;
        const std::size_t eq = item.find('=');
        if (eq == std::string::npos) {
            error = std::string(name) + " item needs key=value: " + item;
            return std::nullopt;
        }
        if (!apply(spec, item.substr(0, eq), item.substr(eq + 1))) {
            if (error.empty())
                error = std::string("bad ") + name + " item: " + item;
            return std::nullopt;
        }
    }
    try {
        spec.validate();
    } catch (const std::invalid_argument &e) {
        error = e.what();
        return std::nullopt;
    }
    return spec;
}

} // namespace cxlmemo

#endif // CXLMEMO_SIM_SPEC_HH
