#include "sim/stats.hh"

#include <algorithm>
#include <bit>
#include <cstdio>

namespace cmpmem
{

void
StatSet::set(const std::string &name, double value)
{
    auto [it, inserted] = values.emplace(name, value);
    if (inserted)
        order.push_back(name);
    else
        it->second = value;
}

double
StatSet::get(const std::string &name, double dflt) const
{
    auto it = values.find(name);
    return it == values.end() ? dflt : it->second;
}

bool
StatSet::has(const std::string &name) const
{
    return values.count(name) != 0;
}

std::string
StatSet::format() const
{
    std::size_t width = 0;
    for (const auto &name : order)
        width = std::max(width, name.size());

    std::string out;
    char buf[256];
    for (const auto &name : order) {
        std::snprintf(buf, sizeof(buf), "%-*s %.6g\n", int(width),
                      name.c_str(), get(name));
        out += buf;
    }
    return out;
}

std::string
StatSet::toCsv() const
{
    std::string header;
    std::string values;
    char buf[64];
    for (const auto &name : order) {
        if (!header.empty()) {
            header += ",";
            values += ",";
        }
        header += name;
        std::snprintf(buf, sizeof(buf), "%.17g", get(name));
        values += buf;
    }
    return header + "\n" + values + "\n";
}

std::string
StatSet::digest() const
{
    // FNV-1a, 64-bit. Values hash by bit pattern (not by formatted
    // text) so the digest is exactly as strict as operator== on the
    // underlying doubles; +0.0 is normalized over -0.0 so an
    // all-zero counter digests the same however it was computed.
    std::uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&h](const void *data, std::size_t len) {
        const unsigned char *p = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < len; ++i) {
            h ^= p[i];
            h *= 0x100000001b3ull;
        }
    };
    for (const auto &name : order) {
        mix(name.data(), name.size() + 1); // include the NUL: no
                                           // name-concatenation aliasing
        double v = get(name);
        if (v == 0.0)
            v = 0.0;
        const std::uint64_t bits = std::bit_cast<std::uint64_t>(v);
        mix(&bits, sizeof(bits));
    }
    char buf[32];
    std::snprintf(buf, sizeof(buf), "fnv1a:%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

void
StatSet::clear()
{
    values.clear();
    order.clear();
}

} // namespace cmpmem
