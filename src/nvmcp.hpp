// Umbrella header for the nvmcp public API.
//
//   #include "nvmcp.hpp"
//
// pulls in everything an application needs for NVM checkpointing:
// the emulated device, the nvmalloc heap, the checkpoint manager with its
// pre-copy policies, remote (buddy) checkpointing, the restart
// coordinator, and the analytical model. Substrate internals (simulator,
// workload generators, ramdisk baseline) stay opt-in via their own
// headers.
#pragma once

#include "alloc/nvmalloc.hpp"     // nvalloc / chunks / Table III API
#include "common/units.hpp"       // KiB/MiB/GiB, formatting
#include "core/manager.hpp"       // CheckpointManager, policies
#include "core/remote.hpp"        // RemoteCheckpointer
#include "core/restart.hpp"       // RestartCoordinator
#include "ecc/parity_group.hpp"   // erasure-coded remote checkpoints
#include "fault/campaign.hpp"     // chaos campaigns (CampaignRunner)
#include "fault/injector.hpp"     // fault-injection hooks
#include "fault/plan.hpp"         // seeded fault schedules
#include "model/model.hpp"        // Section III analytical model
#include "net/remote_memory.hpp"  // ARMCI-style remote memory
#include "nvm/device.hpp"         // emulated NVM device
#include "tenant/arena.hpp"       // multi-tenant arena (quotas, QoS, admission)
#include "vmem/container.hpp"     // NVM container / metadata
