// cmtos/util/wire_hardening.h
//
// Process-wide switch over the decoders' wire defences (DESIGN.md §14):
// the CRC-32 trailer check of every control TPDU, RPC message and OPDU,
// and the DT packet's header CRC, frame length, frame-body CRC and
// fragment-field checks.  On by default; the soak row
// byzantine_storm_unhardened turns it off to reproduce the pre-hardening
// stack, where a corruption storm feeds garbage straight into protocol
// state — the contrast run that demonstrates the failure the defences
// prevent.  The duplicate guards and the per-peer malformed-PDU quarantine
// do not read it.
//
// Set it once before traffic starts (like the epoch-fencing switch); the
// flag is atomic only so concurrent shard reads stay TSan-clean.

#pragma once

#include <atomic>

namespace cmtos::wire {

inline std::atomic<bool> g_hardening{true};

inline void set_hardening(bool on) { g_hardening.store(on, std::memory_order_relaxed); }
inline bool hardening() { return g_hardening.load(std::memory_order_relaxed); }

}  // namespace cmtos::wire
