#include "sim/numa.hh"

#include <cstdio>

namespace infs {

namespace {

NumaTopology
discover()
{
    NumaTopology topo;
    unsigned n = 0;
#ifdef __linux__
    for (; n < 1024; ++n) {
        char path[96];
        std::snprintf(path, sizeof(path),
                      "/sys/devices/system/node/node%u/cpulist", n);
        std::FILE *f = std::fopen(path, "r");
        if (f == nullptr)
            break;
        std::fclose(f);
    }
#endif
    topo.nodes = n == 0 ? 1 : n;
    return topo;
}

} // namespace

const NumaTopology &
numaTopology()
{
    static const NumaTopology topo = discover();
    return topo;
}

} // namespace infs
