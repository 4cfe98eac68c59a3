/**
 * @file
 * perfbench: the in-process half of the repository benchmark. run.py
 * builds it next to descend-cli and calls its subcommands; see
 * perfbench.h.
 */
#include <cstdio>
#include <exception>
#include <string>

#include "descend/obs/counters.h"
#include "descend/simd/dispatch.h"
#include "perfbench.h"

namespace {

/** The build half of the fingerprint; run.py adds the machine and commit. */
std::string fingerprint()
{
    using perfbench::field;
    perfbench::JsonBuilder out(256);
    out.begin_object();
    field(out, "simd_tier", descend::simd::level_name(descend::simd::default_level()));
    field(out, "descend_obs", descend::obs::kEnabled);
#ifdef NDEBUG
    field(out, "ndebug", true);
#else
    field(out, "ndebug", false);
#endif
    out.end_object();
    return out.take();
}

}  // namespace

int main(int argc, char** argv)
{
    using namespace perfbench;
    const std::string command = argc > 1 ? argv[1] : "";
    const Args args(argc, argv, 2);
    try {
        if (command == "setup") {
            return cmd_setup(args);
        }
        if (command == "oracle") {
            return cmd_oracle(args);
        }
        if (command == "layers") {
            return cmd_layers(args);
        }
        if (command == "fingerprint") {
            std::printf("%s\n", fingerprint().c_str());
            return 0;
        }
    } catch (const std::exception& error) {
        std::fprintf(stderr, "perfbench %s: %s\n", command.c_str(), error.what());
        return 1;
    }
    std::fprintf(stderr,
                 "usage: perfbench setup|oracle|layers|fingerprint "
                 "--workload W --dir D --seed N ...\n");
    return 2;
}
