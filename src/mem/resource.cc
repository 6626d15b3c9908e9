#include "mem/resource.hh"

#include <algorithm>
#include <bit>
#include <iterator>
#include <utility>

#include "sim/sim_error.hh"

namespace cmpmem
{

Resource::Resource(std::string name) : label(std::move(name)) {}

void
Resource::prune(Tick earliest)
{
    // Transactions are issued nearly in time order (bounded by the
    // core quantum plus transaction depth), so reservations ending
    // well before the current request can never conflict again.
    if (earliest < pruneHorizon)
        return;
    Tick cutoff = earliest - pruneHorizon;
    while (head < busyList.size() && busyList[head].end < cutoff)
        ++head;
    // Drop the dead prefix once it outgrows the live part; each live
    // interval moves at most once per interval pruned before it.
    if (head > busyList.size() - head) {
        busyList.erase(busyList.begin(), busyList.begin() + head);
        head = 0;
    }
}

Tick
Resource::acquire(Tick earliest, Tick occupancy)
{
    ++count;
    busy += occupancy;
    prune(earliest);

    if (occupancy == 0)
        return std::max(earliest, Tick(0));

    // First-fit gap search: transactions may reserve future slots
    // (e.g. a response beat) without blocking the idle time before
    // them. Ends ascend, so the intervals already over by `earliest`
    // form a prefix; every later one ends after any candidate start.
    Tick start = earliest;
    auto pos = std::partition_point(
        busyList.begin() + head, busyList.end(),
        [start](const Interval &iv) { return iv.end <= start; });
    for (; pos != busyList.end(); ++pos) {
        if (pos->start >= start + occupancy)
            break; // gap before this interval fits
        start = pos->end;
    }
    waited += start - earliest;

    // Place [start, end) before pos, merging with the neighbours it
    // touches.
    Tick end = start + occupancy;
    bool joinsPrev = pos != busyList.begin() + head &&
                     std::prev(pos)->end == start;
    bool joinsNext = pos != busyList.end() && pos->start == end;
    if (joinsPrev && joinsNext) {
        std::prev(pos)->end = pos->end;
        busyList.erase(pos);
    } else if (joinsPrev) {
        std::prev(pos)->end = end;
    } else if (joinsNext) {
        pos->start = start;
    } else {
        busyList.insert(pos, Interval{start, end});
    }
    return start;
}

Tick
Resource::nextFree() const
{
    return head == busyList.size() ? 0 : busyList.back().end;
}

void
Resource::reset()
{
    busyList.clear();
    head = 0;
    busy = 0;
    waited = 0;
    count = 0;
}

ChannelResource::ChannelResource(std::string name, std::uint32_t width_bytes,
                                 Tick beat_ticks)
    : Resource(std::move(name)),
      width(width_bytes),
      widthShift(std::uint32_t(std::countr_zero(width_bytes))),
      beat(beat_ticks)
{
    if (!std::has_single_bit(width) || beat == 0)
        throwSimError(SimErrorKind::Config,
                      "%s: channel width must be a power of two (got %u B) "
                      "and beat time positive",
                      this->name().c_str(), width);
}

} // namespace cmpmem
