/**
 * @file
 * Subcommands of the perfbench tool. Each takes its `--name value`
 * arguments and returns a process exit code.
 */
#pragma once

#include "common.h"
#include "inputs.h"

namespace perfbench {

/** Writes a workload's inputs under --dir and its manifest.json. */
int cmd_setup(const Args& args);

/** Writes the expected answers a workload's outputs are checked against. */
int cmd_oracle(const Args& args);

/** The traced in-process run: per-layer metrics, self times, overhead. */
int cmd_layers(const Args& args);

}  // namespace perfbench
