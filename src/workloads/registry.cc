#include "workloads/registry.hh"

#include "workloads/pointnet.hh"
#include "workloads/workloads.hh"

namespace infs {

const std::vector<BenchScenario> &
benchRegistry()
{
    static const std::vector<BenchScenario> entries = {
        {"vec_add", [] { return makeVecAdd(512); },
         [] { return makeVecAdd(1 << 18); },
         [] { return makeVecAdd(4 << 20); }},
        {"array_sum", [] { return makeArraySum(1000); },
         [] { return makeArraySum(1 << 18); },
         [] { return makeArraySum(4 << 20); }},
        {"stencil1d", [] { return makeStencil1d(256, 4); },
         [] { return makeStencil1d(1 << 16, 8); },
         [] { return makeStencil1d(4 << 20, 10); }},
        {"stencil2d", [] { return makeStencil2d(32, 24, 3); },
         [] { return makeStencil2d(256, 256, 6); },
         [] { return makeStencil2d(2048, 2048, 10); }},
        {"stencil3d", [] { return makeStencil3d(16, 12, 8, 2); },
         [] { return makeStencil3d(64, 64, 32, 4); },
         [] { return makeStencil3d(512, 512, 16, 10); }},
        {"dwt2d", [] { return makeDwt2d(32, 32); },
         [] { return makeDwt2d(256, 256); },
         [] { return makeDwt2d(2048, 2048); }},
        {"gauss_elim", [] { return makeGaussElim(24); },
         [] { return makeGaussElim(96); },
         [] { return makeGaussElim(2048); }},
        {"conv2d", [] { return makeConv2d(24, 20); },
         [] { return makeConv2d(128, 128); },
         [] { return makeConv2d(2048, 2048); }},
        {"conv3d", [] { return makeConv3d(10, 8, 4, 3); },
         [] { return makeConv3d(32, 32, 8, 8); },
         [] { return makeConv3d(256, 256, 64, 64); }},
        {"mm_outer", [] { return makeMm(12, 16, 8, true); },
         [] { return makeMm(64, 64, 64, true); },
         [] { return makeMm(2048, 2048, 2048, true); }},
        {"mm_inner", [] { return makeMm(12, 16, 8, false); },
         [] { return makeMm(64, 64, 64, false); },
         [] { return makeMm(2048, 2048, 2048, false); }},
        {"kmeans_outer", [] { return makeKmeans(64, 8, 4, true); },
         [] { return makeKmeans(1024, 16, 8, true); },
         [] { return makeKmeans(32 << 10, 128, 128, true); }},
        {"kmeans_inner", [] { return makeKmeans(64, 8, 4, false); },
         [] { return makeKmeans(1024, 16, 8, false); },
         [] { return makeKmeans(32 << 10, 128, 128, false); }},
        {"gather_mlp_outer",
         [] { return makeGatherMlp(24, 8, 6, 40, true); },
         [] { return makeGatherMlp(128, 32, 24, 256, true); },
         [] {
             return makeGatherMlp(32 << 10, 128, 128, 64 << 10, true);
         }},
        {"gather_mlp_inner",
         [] { return makeGatherMlp(24, 8, 6, 40, false); },
         [] { return makeGatherMlp(128, 32, 24, 256, false); },
         [] {
             return makeGatherMlp(32 << 10, 128, 128, 64 << 10, false);
         }},
        {"pointnet_ssg", [] { return makePointNetSSG(128); },
         [] { return makePointNetSSG(512); },
         [] { return makePointNetSSG(4096); }},
        {"pointnet_msg", [] { return makePointNetMSG(64); },
         [] { return makePointNetMSG(256); },
         [] { return makePointNetMSG(4096); }},
    };
    return entries;
}

const BenchScenario *
findScenario(const std::string &name)
{
    for (const BenchScenario &sc : benchRegistry())
        if (name == sc.name)
            return &sc;
    return nullptr;
}

} // namespace infs
