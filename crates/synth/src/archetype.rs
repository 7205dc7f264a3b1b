//! Network archetypes: the addressing practices the paper reverse
//! engineers (§6.2.1, §6.2.3), as generative models.
//!
//! Each archetype turns `(entropy, asn, subscriber slot, day)` into the
//! set of addresses that subscriber's devices use that day, labelled with
//! ground truth. The archetypes encode, faithfully to the paper:
//!
//! * **Mobile** — dynamic /64 assignment per association from pools
//!   filling the 44–64 bit segment of hundreds of /44s (Figure 5e); many
//!   devices sharing the same fixed IID; the duplicated-MAC EUI-64
//!   anomaly (§4.1 footnote 2); /64 reuse across subscribers within days.
//! * **RotatingIsp** — the EU ISP of Figure 5f: a constant bit 40, an
//!   oft-changing pseudorandom 15-bit number at bits 41–55 (changeable
//!   "at the press of a button"), and a non-uniform 8-bit field at 56–63
//!   favouring 0x00/0x01.
//! * **StaticIsp** — the JP ISP of Figure 5h: one static /48 per
//!   subscriber, constant 16-bit subnet field, so 99%+ of EUI-64 IIDs
//!   stay within one /64 per week.
//! * **Broadband** — DHCPv6-PD-stable /64s with rare renumbering.
//! * **University** — structured subnet plans (3 hex-character classes as
//!   in Figure 2a) and, on one campus, the dense DHCPv6 department /64 of
//!   Figure 5g with `dhcpv6-*` PTR names.
//! * **Hosting** — statically numbered server blocks that produce the
//!   2@/112-dense WWW-client regions of §6.2.2.
//! * **Generic** — the heavy tail of ISPs with per-ASN parameter draws.

use crate::kinds::TrueKind;
use crate::rng::Entropy;
use crate::world::growth;
use v6census_addr::{Addr, Mac, Prefix};
use v6census_core::temporal::Day;

/// One observed (address, hits, ground truth) triple before aggregation.
#[derive(Clone, Copy, Debug)]
pub struct RawObs {
    /// The client address.
    pub addr: Addr,
    /// WWW hits attributed that day.
    pub hits: u32,
    /// Ground truth.
    pub kind: TrueKind,
}

/// Offset added to day numbers before modular phase arithmetic, so the
/// values stay positive anywhere near the study period.
const DAY_BASE: i32 = 20_000;

/// A small pool of plausible OUIs for synthetic MACs.
#[expect(
    clippy::unusual_byte_groupings,
    reason = "written as conventional 6-hex-digit OUIs"
)]
const OUIS: [u32; 12] = [
    0x001e_c2, 0x3c07_54, 0xa4b8_05, 0x28cf_e9, 0x7054_d2, 0xf0d1_a9, 0x0023_76, 0x8c70_5a,
    0xd857_ef, 0x40b0_fa, 0x5c51_4f, 0x0026_bb,
];

/// Fixed interface identifiers shared across many mobile devices — the
/// paper's observation that "many mobile devices simultaneously use the
/// same fixed interface identifier".
const SHARED_MOBILE_IIDS: [u64; 24] = [
    0x1,
    0x2,
    0x3,
    0x4,
    0x5,
    0x64,
    0x65,
    0x100,
    0x101,
    0x1001,
    0x1002,
    0x2001,
    0x0a00_0001,
    0x0a00_0002,
    0x1010_1010,
    0xc0ff_ee01,
    0xbeef_0001,
    0xdead_0001,
    0x1234_5678,
    0x0bad_cafe,
    0x0000_abcd,
    0x0000_ef01,
    0x0000_1111,
    0x0000_2222,
];

/// Clears the RFC 4941 "u" bit (address bit 70 ⇒ IID bit 57).
#[inline]
fn privacy_bits(h: u64) -> u64 {
    h & !(1u64 << 57)
}

/// Parameters shared by the home-network archetypes.
#[derive(Clone, Copy, Debug)]
pub struct HomeParams {
    /// Mean devices per household (geometric, capped).
    pub devices_mean: f64,
    /// Device count cap.
    pub devices_cap: u64,
    /// Probability a device is active on a day the household is active.
    pub p_device: f64,
    /// Share of devices using EUI-64 SLAAC.
    pub share_eui: f64,
    /// Share using RFC 7217 stable-privacy IIDs.
    pub share_stable_privacy: f64,
    /// Share of privacy devices with slow rotation (a per-device period
    /// of 3–45 days: lease-length or until-reboot lifetimes). These are
    /// the medium-lived addresses that dominate the 3d-stable class yet
    /// vanish by the 6-month and 1-year classes — the paper's Table 2a
    /// gap (9.4% 3d-stable vs 0.34% 6m-stable).
    pub share_slow_rotation: f64,
    /// Probability the household exposes an always-on CPE client.
    pub p_cpe: f64,
}

impl HomeParams {
    const fn typical() -> HomeParams {
        HomeParams {
            devices_mean: 4.8,
            devices_cap: 14,
            p_device: 0.8,
            share_eui: 0.02,
            share_stable_privacy: 0.02,
            share_slow_rotation: 0.12,
            p_cpe: 0.025,
        }
    }
}

/// Mobile carrier parameters.
#[derive(Clone, Copy, Debug)]
pub struct MobileParams {
    /// /64 pool slots per advertised prefix (the dynamic 44–64 / 40–64
    /// bit segment).
    pub pool_per_prefix: u64,
    /// Share of devices using a shared fixed IID.
    pub share_shared_fixed: f64,
    /// Share using a per-device fixed IID.
    pub share_fixed_dev: f64,
    /// Share using EUI-64.
    pub share_eui: f64,
    /// Whether this carrier exhibits the duplicated-MAC anomaly.
    pub dup_mac: bool,
    /// Probability of a second association (new /64) in a day.
    pub p_second_assoc: f64,
}

/// Per-ASN generic-tail parameters, drawn deterministically from the ASN.
#[derive(Clone, Copy, Debug)]
pub struct GenericParams {
    /// Home-side parameters.
    pub home: HomeParams,
    /// Mean days between /64 renumbering events.
    pub renumber_period: u32,
    /// Number of statically numbered server clients (0 = none).
    pub servers: u32,
}

/// Hosting-network parameters.
#[derive(Clone, Copy, Debug)]
pub struct HostingParams {
    /// Probability a server is an active WWW client on a given day.
    pub p_active: f64,
}

/// The addressing-practice archetype of a network.
#[derive(Clone, Copy, Debug)]
pub enum Archetype {
    /// Mobile carrier with dynamic /64 pools (Figure 5e).
    Mobile(MobileParams),
    /// EU-style ISP with rotating pseudorandom network IDs (Figure 5f).
    RotatingIsp {
        /// Home-side parameters.
        home: HomeParams,
        /// Number of (region, pop) gateway pools sharing 15-bit NID
        /// spaces. Scales with the world so that per-pool NID density —
        /// and hence the Figure 5f "many values in the 40-64 segment"
        /// structure — is scale-invariant.
        region_combos: u64,
    },
    /// JP-style ISP with static per-subscriber /48s (Figure 5h).
    StaticIsp(HomeParams),
    /// US-style broadband with DHCPv6-PD-stable /64s.
    Broadband(HomeParams),
    /// University with a structured address plan (Figures 2a, 5g).
    University {
        /// Whether this campus hosts the dense DHCPv6 department /64.
        dense_dept: bool,
    },
    /// Server/hosting network (dense static blocks).
    Hosting(HostingParams),
    /// Generic tail ISP.
    Generic(GenericParams),
}

impl Archetype {
    /// Mobile carrier A (the larger one, with the MAC anomaly).
    pub fn mobile_a(scale: f64) -> Archetype {
        Archetype::Mobile(MobileParams {
            pool_per_prefix: ((600.0 * scale).round() as u64).max(2),
            share_shared_fixed: 0.28,
            share_fixed_dev: 0.40,
            share_eui: 0.02,
            dup_mac: true,
            p_second_assoc: 0.30,
        })
    }

    /// Mobile carrier B.
    pub fn mobile_b(scale: f64) -> Archetype {
        Archetype::Mobile(MobileParams {
            pool_per_prefix: ((1_200.0 * scale).round() as u64).max(2),
            share_shared_fixed: 0.22,
            share_fixed_dev: 0.42,
            share_eui: 0.02,
            dup_mac: false,
            p_second_assoc: 0.25,
        })
    }

    /// The EU rotating-NID ISP.
    pub fn rotating_isp(scale: f64) -> Archetype {
        Archetype::RotatingIsp {
            home: HomeParams::typical(),
            region_combos: ((64.0 * scale).round() as u64).clamp(1, 64),
        }
    }

    /// The JP static-/48 ISP.
    pub fn static_isp() -> Archetype {
        let mut p = HomeParams::typical();
        p.devices_mean = 5.6;
        p.share_eui = 0.03;
        Archetype::StaticIsp(p)
    }

    /// The US broadband ISP.
    pub fn broadband() -> Archetype {
        let mut p = HomeParams::typical();
        p.p_cpe = 0.04;
        Archetype::Broadband(p)
    }

    /// A university; `dense_dept` marks the Figure 5g campus.
    pub fn university(dense_dept: bool) -> Archetype {
        Archetype::University { dense_dept }
    }

    /// A hosting network with per-ASN activity drawn from `ent`.
    pub fn hosting(ent: Entropy, asn: u32) -> Archetype {
        Archetype::Hosting(HostingParams {
            p_active: 0.35 + 0.3 * ent.unit(b"hpac", &[asn as u64]),
        })
    }

    /// A generic tail ISP with per-ASN parameters drawn from `ent`;
    /// server-block sizes scale with the world.
    pub fn generic(ent: Entropy, asn: u32, scale: f64) -> Archetype {
        let a = asn as u64;
        let mut home = HomeParams::typical();
        home.devices_mean = 2.0 + 3.6 * ent.unit(b"gdev", &[a]);
        home.p_cpe = 0.12 * ent.unit(b"gcpe", &[a]);
        home.share_eui = 0.005 + 0.05 * ent.unit(b"geui", &[a]);
        Archetype::Generic(GenericParams {
            home,
            renumber_period: 100 + (ent.u64(b"gren", &[a]) % 1_000) as u32,
            servers: if ent.chance(b"gsrv", &[a], 0.49) {
                (((2 + ent.u64(b"gsr2", &[a]) % 9) as f64 * scale).round() as u32).max(2)
            } else {
                0
            },
        })
    }

    /// Emits one day of observations for every subscriber of `asn`.
    #[expect(
        clippy::too_many_arguments,
        reason = "one argument per input of the emission model"
    )]
    pub fn emit_day(
        &self,
        ent: &Entropy,
        asn: u32,
        prefixes: &[Prefix],
        max_subs: u64,
        activation: Day,
        day: Day,
        out: &mut Vec<RawObs>,
    ) {
        if day < activation {
            return;
        }
        // Every archetype needs at least one prefix; a network without
        // one has nothing to emit.
        let Some(&first) = prefixes.first() else {
            return;
        };
        let g = growth(day).min(1.0);
        match self {
            Archetype::Mobile(p) => emit_mobile(ent, asn, prefixes, max_subs, g, day, p, out),
            Archetype::RotatingIsp {
                home,
                region_combos,
            } => emit_rotating(ent, asn, first, max_subs, g, day, home, *region_combos, out),
            Archetype::StaticIsp(p) => emit_static_isp(ent, asn, first, max_subs, g, day, p, out),
            Archetype::Broadband(p) => {
                emit_renumbering(ent, asn, prefixes, max_subs, g, day, p, 420, out)
            }
            Archetype::University { dense_dept } => {
                emit_university(ent, asn, first, max_subs, g, day, *dense_dept, out)
            }
            Archetype::Hosting(p) => emit_hosting(ent, asn, first, max_subs, g, day, p, out),
            Archetype::Generic(p) => {
                emit_renumbering(
                    ent,
                    asn,
                    prefixes,
                    max_subs,
                    g,
                    day,
                    &p.home,
                    p.renumber_period,
                    out,
                );
                emit_server_block(ent, asn, first, p.servers, day, out);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Common subscriber machinery
// ---------------------------------------------------------------------------

/// Whether slot `slot` has an IPv6-connected occupant on `day`, given the
/// global deployment growth fraction `g`.
fn joined(ent: &Entropy, asn: u32, slot: u64, g: f64) -> bool {
    ent.unit(b"join", &[asn as u64, slot]) < g
}

/// Occupant index of a slot: occupants turn over with a per-slot tenure,
/// modelling subscriber churn and hence /64 (or /48) reuse over time.
fn occupant(ent: &Entropy, asn: u32, slot: u64, day: Day) -> u64 {
    let tenure = 120 + ent.u64(b"tenu", &[asn as u64, slot]) % 1_100;
    let phase = ent.u64(b"teph", &[asn as u64, slot]) % tenure;
    ((day.0 + DAY_BASE) as u64 + phase) / tenure
}

/// Whether the household is active (any device might appear) on `day`.
///
/// Visit rates to any one service are heavy-tailed: most households
/// appear at the CDN only every few days or weeks, a minority daily.
/// This tail is what makes ~10% of /64s "not 3d-stable" in the paper's
/// Table 2b despite /64 assignments being persistent — stability
/// classification is limited by the opportunity to observe (§5.1).
fn household_active(ent: &Entropy, asn: u32, slot: u64, occ: u64, day: Day) -> bool {
    let ids = [asn as u64, slot, occ];
    // A minority of households host always-on clients (phones on wifi,
    // streaming boxes) and appear near-daily; the rest follow a heavy
    // tail of occasional visits.
    let p = if ent.chance(b"halw", &ids, 0.10) {
        0.8
    } else {
        let u = ent.unit(b"hact", &ids);
        0.02 + 0.45 * u * u * u.sqrt()
    };
    ent.chance(b"actd", &[asn as u64, slot, occ, day.0 as u64], p)
}

/// Hit count for one device-day.
fn hits(ent: &Entropy, ids: &[u64], mean: f64) -> u32 {
    ent.small_count(b"hits", ids, mean, 500) as u32
}

/// A synthetic MAC for a device.
fn device_mac(ent: &Entropy, ids: &[u64]) -> Mac {
    let oui = OUIS[(ent.u64(b"maco", ids) % OUIS.len() as u64) as usize];
    let nic = (ent.u64(b"macn", ids) & 0xff_ffff) as u32;
    Mac::from_oui_nic(oui, nic)
}

/// Emits the devices of one active household into `out`, given the
/// household's /64 network bits (high half of the address).
#[expect(
    clippy::too_many_arguments,
    reason = "one argument per input of the emission model"
)]
fn emit_household_devices(
    ent: &Entropy,
    asn: u32,
    slot: u64,
    occ: u64,
    day: Day,
    net_high: u64,
    p: &HomeParams,
    out: &mut Vec<RawObs>,
) {
    let a = asn as u64;
    let ndev = ent.small_count(b"ndev", &[a, slot, occ], p.devices_mean, p.devices_cap);
    for dev in 0..ndev {
        let dev_ids = [a, slot, occ, dev];
        if !ent.chance(b"dact", &[a, slot, occ, dev, day.0 as u64], p.p_device) {
            continue;
        }
        let roll = ent.unit(b"dknd", &dev_ids);
        let (iid, kind) = if roll < p.share_eui {
            let mac = device_mac(ent, &dev_ids);
            (mac.to_modified_eui64(), TrueKind::Eui64 { mac })
        } else if roll < p.share_eui + p.share_stable_privacy {
            // RFC 7217: stable per (device, prefix).
            (
                privacy_bits(ent.u64(b"sprv", &[a, slot, occ, dev, net_high])),
                TrueKind::StablePrivacy,
            )
        } else if roll < p.share_eui + p.share_stable_privacy + p.share_slow_rotation {
            let period = 3 + ent.u64(b"prpd", &dev_ids) % 43;
            let phase = ent.u64(b"prph", &dev_ids) % period;
            let epoch = ((day.0 + DAY_BASE) as u64 + phase) / period;
            (
                privacy_bits(ent.u64(b"prvw", &[a, slot, occ, dev, epoch])),
                TrueKind::Privacy {
                    rotation_days: period as u16,
                },
            )
        } else {
            // Daily-rotating RFC 4941 temporary address. A temp address
            // created mid-day stays preferred ~24h, so its activity
            // straddles two aggregated log days (compounded by the §4.1
            // processing-timestamp slew): emit yesterday's address too
            // with the straddle probability.
            let iid_today = privacy_bits(ent.u64(b"prvd", &[a, slot, occ, dev, day.0 as u64]));
            if ent.chance(b"prst", &[a, slot, occ, dev, day.0 as u64], 0.55) {
                let iid_prev =
                    privacy_bits(ent.u64(b"prvd", &[a, slot, occ, dev, (day.0 - 1) as u64]));
                out.push(RawObs {
                    addr: Addr(((net_high as u128) << 64) | iid_prev as u128),
                    hits: hits(ent, &[a, slot, occ, dev, day.0 as u64, 1], 2.0),
                    kind: TrueKind::Privacy { rotation_days: 1 },
                });
            }
            (iid_today, TrueKind::Privacy { rotation_days: 1 })
        };
        out.push(RawObs {
            addr: Addr(((net_high as u128) << 64) | iid as u128),
            hits: hits(ent, &[a, slot, occ, dev, day.0 as u64], 4.0),
            kind,
        });
    }
    // Always-on CPE client (home hub, set-top) with a stable address.
    // The address itself has a long but finite lifetime: firmware
    // updates, reboots with opaque-IID regeneration, or ISP renumbering
    // replace it after a couple hundred days, so few CPEs survive the
    // 1-year class.
    if ent.chance(b"hcpe", &[a, slot, occ], p.p_cpe)
        && ent.chance(b"cpad", &[a, slot, occ, day.0 as u64], 0.9)
    {
        let iid = if ent.chance(b"cpe1", &[a, slot, occ], 0.35) {
            0x1
        } else {
            let period = 60 + ent.u64(b"cppd", &[a, slot, occ]) % 500;
            let epoch = ((day.0 + DAY_BASE) as u64) / period;
            0x100 + ent.u64(b"cpei", &[a, slot, occ, epoch]) % 0xff00
        };
        out.push(RawObs {
            addr: Addr(((net_high as u128) << 64) | iid as u128),
            hits: hits(ent, &[a, slot, occ, day.0 as u64], 2.0),
            kind: TrueKind::Cpe,
        });
    }
}

// ---------------------------------------------------------------------------
// Mobile
// ---------------------------------------------------------------------------

#[expect(
    clippy::too_many_arguments,
    reason = "one argument per input of the emission model"
)]
fn emit_mobile(
    ent: &Entropy,
    asn: u32,
    prefixes: &[Prefix],
    max_subs: u64,
    g: f64,
    day: Day,
    p: &MobileParams,
    out: &mut Vec<RawObs>,
) {
    let a = asn as u64;
    let n_prefixes = prefixes.len() as u64;
    for slot in 0..max_subs {
        if !joined(ent, asn, slot, g) {
            continue;
        }
        let occ = occupant(ent, asn, slot, day);
        // Handsets are online most days (always-on mobile data), with a
        // modest tail of rarely seen devices.
        let u = ent.unit(b"mact", &[a, slot, occ]);
        let p_act = 0.35 + 0.60 * u;
        if !ent.chance(b"macd", &[a, slot, occ, day.0 as u64], p_act) {
            continue;
        }
        let dev_ids = [a, slot, occ];
        let roll = ent.unit(b"mknd", &dev_ids);
        let (iid, kind) = if roll < p.share_shared_fixed {
            let rank = ent.zipf_rank(b"mshr", &dev_ids, SHARED_MOBILE_IIDS.len() as u64);
            (SHARED_MOBILE_IIDS[rank as usize], TrueKind::FixedIid)
        } else if roll < p.share_shared_fixed + p.share_fixed_dev {
            (privacy_bits(ent.u64(b"mfix", &dev_ids)), TrueKind::FixedIid)
        } else if roll < p.share_shared_fixed + p.share_fixed_dev + p.share_eui {
            let mac = if p.dup_mac && ent.chance(b"mdup", &dev_ids, 0.3) {
                Mac::PAPER_DUPLICATE
            } else {
                device_mac(ent, &dev_ids)
            };
            (mac.to_modified_eui64(), TrueKind::Eui64 { mac })
        } else {
            (
                privacy_bits(ent.u64(b"mprv", &[a, slot, occ, day.0 as u64])),
                TrueKind::Privacy { rotation_days: 1 },
            )
        };
        let assocs =
            1 + ent.chance(b"mas2", &[a, slot, occ, day.0 as u64], p.p_second_assoc) as u64;
        for assoc in 0..assocs {
            // Each association draws a /64 from the carrier's pools —
            // least-recently-used in reality, uniform here; either way
            // the pool cycles and /64s are reused across subscribers.
            let ids = [a, slot, occ, day.0 as u64, assoc];
            let pi = ent.below(b"mppx", &ids, n_prefixes);
            let pool_slot = ent.below(b"mp64", &ids, p.pool_per_prefix);
            let net = prefixes[pi as usize].addr().0 | ((pool_slot as u128) << 64);
            let iid = if assoc == 0 || !matches!(kind, TrueKind::Privacy { .. }) {
                iid
            } else {
                // A re-association with privacy addressing regenerates.
                privacy_bits(ent.u64(b"mpr2", &ids))
            };
            out.push(RawObs {
                addr: Addr(net | iid as u128),
                hits: hits(ent, &ids, 5.0),
                kind,
            });
        }
    }
}

// ---------------------------------------------------------------------------
// EU rotating-NID ISP
// ---------------------------------------------------------------------------

/// Probability per day that a household's pseudorandom network ID
/// changes. 0.05/day ⇒ ~70% of IIDs stay in one /64 over a week,
/// matching the paper's 67.4% for the EU ISP.
const NID_CHANGE_DAILY: f64 = 0.05;

/// The day the household's NID last changed (bounded backward scan).
fn last_nid_change(ent: &Entropy, asn: u32, slot: u64, occ: u64, day: Day) -> i64 {
    let a = asn as u64;
    let mut d = day.0;
    for _ in 0..730 {
        if ent.chance(b"nidc", &[a, slot, occ, d as u64], NID_CHANGE_DAILY) {
            return d as i64;
        }
        d -= 1;
    }
    d as i64
}

#[expect(
    clippy::too_many_arguments,
    reason = "one argument per input of the emission model"
)]
fn emit_rotating(
    ent: &Entropy,
    asn: u32,
    prefix: Prefix,
    max_subs: u64,
    g: f64,
    day: Day,
    p: &HomeParams,
    region_combos: u64,
    out: &mut Vec<RawObs>,
) {
    let a = asn as u64;
    let base_high = (prefix.addr().0 >> 64) as u64;
    for slot in 0..max_subs {
        if !joined(ent, asn, slot, g) {
            continue;
        }
        let occ = occupant(ent, asn, slot, day);
        if !household_active(ent, asn, slot, occ, day) {
            continue;
        }
        // Figure 5f layout: region/pop structure in bits 19..40, bit 40
        // constant 0, pseudorandom 15-bit NID at bits 41..55, non-uniform
        // 8-bit value at 56..63 (most often 0x00 or 0x01). Households
        // draw NIDs from their gateway pool's 15-bit space; with few
        // large pools, /48s cut across many active NIDs ("populated with
        // many values, heavier usage of the higher order bits").
        let combo = ent.u64(b"eucb", &[a, slot]) % region_combos;
        let region = (combo * 37) % 0xe0; // bits 24..32
        let pop = (combo * 11) % 0x60; // bits 32..40
        let changed = last_nid_change(ent, asn, slot, occ, day);
        let nid = ent.u64(b"nidv", &[a, slot, occ, changed as u64]) & 0x7fff;
        let subnet_roll = ent.unit(b"eusn", &[a, slot, occ]);
        let subnet = if subnet_roll < 0.55 {
            0x00
        } else if subnet_roll < 0.82 {
            0x01
        } else {
            ent.u64(b"eusv", &[a, slot, occ]) % 256
        };
        let net_high = base_high | (region << 32) | (pop << 24) | (nid << 8) | subnet;
        emit_household_devices(ent, asn, slot, occ, day, net_high, p, out);
    }
}

// ---------------------------------------------------------------------------
// JP static-/48 ISP
// ---------------------------------------------------------------------------

#[expect(
    clippy::too_many_arguments,
    reason = "one argument per input of the emission model"
)]
fn emit_static_isp(
    ent: &Entropy,
    asn: u32,
    prefix: Prefix,
    max_subs: u64,
    g: f64,
    day: Day,
    p: &HomeParams,
    out: &mut Vec<RawObs>,
) {
    let base_high = (prefix.addr().0 >> 64) as u64;
    for slot in 0..max_subs {
        if !joined(ent, asn, slot, g) {
            continue;
        }
        let occ = occupant(ent, asn, slot, day);
        if !household_active(ent, asn, slot, occ, day) {
            continue;
        }
        // Static /48 per subscriber slot (bits 24..48); the 16-bit subnet
        // field is the same value (0) in every address — Figure 5h's
        // "no aggregation in the 48-64 segment".
        let net_high = base_high | (slot << 16);
        emit_household_devices(ent, asn, slot, occ, day, net_high, p, out);
    }
}

// ---------------------------------------------------------------------------
// Renumbering broadband (US broadband + generic tail)
// ---------------------------------------------------------------------------

#[expect(
    clippy::too_many_arguments,
    reason = "one argument per input of the emission model"
)]
fn emit_renumbering(
    ent: &Entropy,
    asn: u32,
    prefixes: &[Prefix],
    max_subs: u64,
    g: f64,
    day: Day,
    p: &HomeParams,
    renumber_period: u32,
    out: &mut Vec<RawObs>,
) {
    let a = asn as u64;
    for slot in 0..max_subs {
        if !joined(ent, asn, slot, g) {
            continue;
        }
        let occ = occupant(ent, asn, slot, day);
        if !household_active(ent, asn, slot, occ, day) {
            continue;
        }
        let prefix = prefixes[(slot % prefixes.len() as u64) as usize];
        let base_high = (prefix.addr().0 >> 64) as u64;
        // DHCPv6-PD: the delegated /64 is stable until a renumbering
        // event; the period is long, so most /64s survive the year.
        let period = renumber_period.max(30) as u64;
        let phase = ent.u64(b"rnph", &[a, slot]) % period;
        let epoch = ((day.0 + DAY_BASE) as u64 + phase) / period;
        let region = ent.u64(b"breg", &[a, slot]) % 0x100; // bits 32..40
        let hh = ent.u64(b"bslt", &[a, slot, epoch]) & 0xffff; // bits 48..64
        let net_high = base_high | (region << 24) | hh;
        emit_household_devices(ent, asn, slot, occ, day, net_high, p, out);
    }
}

// ---------------------------------------------------------------------------
// University
// ---------------------------------------------------------------------------

/// The three subnet-class hex characters of the Figure 2a address plan.
const UNI_CLASSES: [u64; 3] = [0x1, 0x8, 0xc];

#[expect(
    clippy::too_many_arguments,
    reason = "one argument per input of the emission model"
)]
fn emit_university(
    ent: &Entropy,
    asn: u32,
    prefix: Prefix,
    max_subs: u64,
    g: f64,
    day: Day,
    dense_dept: bool,
    out: &mut Vec<RawObs>,
) {
    let a = asn as u64;
    let base_high = (prefix.addr().0 >> 64) as u64;
    for slot in 0..max_subs {
        if !joined(ent, asn, slot, g) {
            continue;
        }
        // University hosts are individually modelled (no households).
        if !ent.chance(b"uact", &[a, slot, day.0 as u64], 0.35) {
            continue;
        }
        let class = UNI_CLASSES[ent.zipf_rank(b"ucls", &[a, slot], 3) as usize];
        let dept = ent.u64(b"udep", &[a, slot]) % 24;
        let lan = ent.u64(b"ulan", &[a, slot]) % 3;
        let net_high = base_high | (class << 28) | (dept << 16) | lan;
        let ids = [a, slot];
        let roll = ent.unit(b"uknd", &ids);
        let (iid, kind) = if roll < 0.06 {
            // Lab/desktop machines on DHCPv6 with small IIDs.
            (0x100 + slot % 500, TrueKind::Dhcp)
        } else if roll < 0.12 {
            let mac = device_mac(ent, &ids);
            (mac.to_modified_eui64(), TrueKind::Eui64 { mac })
        } else {
            (
                privacy_bits(ent.u64(b"uprv", &[a, slot, day.0 as u64])),
                TrueKind::Privacy { rotation_days: 1 },
            )
        };
        out.push(RawObs {
            addr: Addr(((net_high as u128) << 64) | iid as u128),
            hits: hits(ent, &[a, slot, day.0 as u64], 3.0),
            kind,
        });
    }
    if dense_dept {
        emit_dense_department(ent, asn, base_high, day, out);
    }
}

/// The Figure 5g department: one /64 holding ~94 densely packed DHCPv6
/// hosts, in three sub-pools distinguished at IID bits 8..16 (address
/// bits 72..80) with host numbers in the final 16 bits.
pub(crate) const DENSE_DEPT_POOLS: [u64; 3] = [0x10, 0x20, 0x30];
pub(crate) const DENSE_DEPT_HOSTS: u64 = 94;

/// The /64 network bits (high half) of the dense department, for a given
/// university base.
pub(crate) fn dense_dept_net_high(base_high: u64) -> u64 {
    base_high | (0x8 << 28) | (0x001 << 16)
}

/// The IID of dense-department host `h`.
pub(crate) fn dense_dept_iid(h: u64) -> u64 {
    let pool = DENSE_DEPT_POOLS[(h % 3) as usize];
    (pool << 48) | (1 + h / 3)
}

fn emit_dense_department(ent: &Entropy, asn: u32, base_high: u64, day: Day, out: &mut Vec<RawObs>) {
    let a = asn as u64;
    let net_high = dense_dept_net_high(base_high);
    for h in 0..DENSE_DEPT_HOSTS {
        if !ent.chance(b"dden", &[a, h, day.0 as u64], 0.75) {
            continue;
        }
        out.push(RawObs {
            addr: Addr(((net_high as u128) << 64) | dense_dept_iid(h) as u128),
            hits: hits(ent, &[a, h, day.0 as u64], 3.0),
            kind: TrueKind::Dhcp,
        });
    }
}

// ---------------------------------------------------------------------------
// Hosting and server blocks
// ---------------------------------------------------------------------------

#[expect(
    clippy::too_many_arguments,
    reason = "one argument per input of the emission model"
)]
fn emit_hosting(
    ent: &Entropy,
    asn: u32,
    prefix: Prefix,
    max_subs: u64,
    g: f64,
    day: Day,
    p: &HostingParams,
    out: &mut Vec<RawObs>,
) {
    // Hosting capacity follows growth loosely (servers deploy earlier).
    let servers = ((max_subs as f64) * (0.6 + 0.4 * g)).round() as u64;
    emit_server_range(ent, asn, prefix, servers, day, p.p_active, 20.0, out);
}

/// Statically numbered server clients: sequential IIDs inside a few /64s,
/// producing the 2@/112-dense WWW-client blocks of §6.2.2.
fn emit_server_block(
    ent: &Entropy,
    asn: u32,
    prefix: Prefix,
    servers: u32,
    day: Day,
    out: &mut Vec<RawObs>,
) {
    emit_server_range(ent, asn, prefix, servers as u64, day, 0.30, 8.0, out);
}

#[expect(
    clippy::too_many_arguments,
    reason = "one argument per input of the emission model"
)]
fn emit_server_range(
    ent: &Entropy,
    asn: u32,
    prefix: Prefix,
    servers: u64,
    day: Day,
    p_active: f64,
    hit_mean: f64,
    out: &mut Vec<RawObs>,
) {
    let a = asn as u64;
    let base_high = (prefix.addr().0 >> 64) as u64;
    for s in 0..servers {
        if !ent.chance(b"sact", &[a, s, day.0 as u64], p_active) {
            continue;
        }
        // 48 servers per subnet; IIDs sequential from ::1.
        let subnet = 1 + s / 48;
        let net_high = base_high | (0xf << 28) | subnet;
        let iid = 1 + s % 48;
        out.push(RawObs {
            addr: Addr(((net_high as u128) << 64) | iid as u128),
            hits: hits(ent, &[a, s, day.0 as u64], hit_mean),
            kind: TrueKind::StaticServer,
        });
    }
}

#[cfg(test)]
mod tests {
    #![allow(
        clippy::disallowed_types,
        reason = "tests count distinct addresses; iteration order is never read"
    )]
    use super::*;
    use crate::world::{asns, epochs, World, WorldConfig};
    use v6census_addr::Iid;

    fn world() -> World {
        World::standard(WorldConfig::tiny(3))
    }

    fn emit_network(w: &World, asn: u32, day: Day) -> Vec<RawObs> {
        let n = w.network(asn).unwrap();
        let mut out = Vec::new();
        n.archetype.emit_day(
            &w.entropy(),
            n.asn,
            &n.prefixes,
            n.max_subscribers,
            n.activation,
            day,
            &mut out,
        );
        out
    }

    #[test]
    fn mobile_addresses_live_in_carrier_prefixes() {
        let w = world();
        let obs = emit_network(&w, asns::MOBILE_A, epochs::mar2015());
        assert!(!obs.is_empty());
        let n = w.network(asns::MOBILE_A).unwrap();
        for o in &obs {
            assert!(
                n.prefixes.iter().any(|p| p.contains_addr(o.addr)),
                "{} outside carrier space",
                o.addr
            );
        }
    }

    #[test]
    fn mobile_64s_change_daily() {
        let w = world();
        let d = epochs::mar2015();
        let day1: std::collections::HashSet<u64> = emit_network(&w, asns::MOBILE_A, d)
            .iter()
            .map(|o| o.addr.network_bits())
            .collect();
        let day2: std::collections::HashSet<u64> = emit_network(&w, asns::MOBILE_A, d + 1)
            .iter()
            .map(|o| o.addr.network_bits())
            .collect();
        // Pools are shared, so /64s overlap; but the per-subscriber
        // assignment is dynamic, so the address sets differ a lot.
        let a1: std::collections::HashSet<u128> = emit_network(&w, asns::MOBILE_A, d)
            .iter()
            .map(|o| o.addr.0)
            .collect();
        let a2: std::collections::HashSet<u128> = emit_network(&w, asns::MOBILE_A, d + 1)
            .iter()
            .map(|o| o.addr.0)
            .collect();
        let addr_overlap = a1.intersection(&a2).count() as f64 / a1.len() as f64;
        let net_overlap = day1.intersection(&day2).count() as f64 / day1.len() as f64;
        assert!(
            net_overlap > 2.0 * addr_overlap,
            "net {net_overlap:.3} vs addr {addr_overlap:.3}"
        );
    }

    #[test]
    fn eu_isp_nid_layout() {
        let w = world();
        let obs = emit_network(&w, asns::EU_ISP, epochs::mar2015());
        assert!(!obs.is_empty());
        let prefix = w.network(asns::EU_ISP).unwrap().prefixes[0];
        let mut subnet_zero_or_one = 0usize;
        for o in &obs {
            assert!(prefix.contains_addr(o.addr));
            // Bit 40 constant zero.
            assert_eq!(
                o.addr.bit(v6census_addr::BitIdx::lit::<40>()),
                0,
                "{}",
                o.addr
            );
            let subnet = (o.addr.network_bits() & 0xff) as u8;
            if subnet <= 1 {
                subnet_zero_or_one += 1;
            }
        }
        assert!(
            subnet_zero_or_one as f64 > 0.6 * obs.len() as f64,
            "subnet skew missing"
        );
    }

    #[test]
    fn jp_isp_static_48s_have_zero_subnet() {
        let w = world();
        let obs = emit_network(&w, asns::JP_ISP, epochs::mar2015());
        assert!(!obs.is_empty());
        for o in &obs {
            assert_eq!(
                o.addr.segment(v6census_addr::SegIdx::lit::<3>()),
                0,
                "subnet field must be constant"
            );
        }
        // /64 per subscriber is static: two days share most /64s.
        let d = epochs::mar2015();
        let n1: std::collections::HashSet<u64> = emit_network(&w, asns::JP_ISP, d)
            .iter()
            .map(|o| o.addr.network_bits())
            .collect();
        let n2: std::collections::HashSet<u64> = emit_network(&w, asns::JP_ISP, d + 1)
            .iter()
            .map(|o| o.addr.network_bits())
            .collect();
        let overlap = n1.intersection(&n2).count() as f64 / n1.len().min(n2.len()) as f64;
        assert!(overlap > 0.12, "JP /64 overlap {overlap:.3}");
    }

    #[test]
    fn dense_department_present_and_packed() {
        let w = world();
        let obs = emit_network(&w, asns::UNIVERSITY_FIRST, epochs::mar2015());
        // Dense department /64: class nybble 8, dept 1, lan 0 (segment 2
        // of the address reads 0x8001).
        let dept: Vec<&RawObs> = obs
            .iter()
            .filter(|o| {
                matches!(o.kind, TrueKind::Dhcp)
                    && o.addr.segment(v6census_addr::SegIdx::lit::<2>()) == 0x8001
            })
            .collect();
        assert!(dept.len() > 40, "dense dept only {} hosts", dept.len());
        // All inside one /64.
        let nets: std::collections::HashSet<u64> =
            dept.iter().map(|o| o.addr.network_bits()).collect();
        assert!(nets.len() <= 2, "{nets:?}");
    }

    #[test]
    fn ground_truth_matches_content_for_eui64() {
        let w = world();
        for asn in [asns::MOBILE_A, asns::JP_ISP, asns::US_BROADBAND] {
            for o in emit_network(&w, asn, epochs::mar2015()) {
                if let TrueKind::Eui64 { mac } = o.kind {
                    assert_eq!(Iid::of(o.addr).eui64_mac(), Some(mac));
                }
                if let TrueKind::Privacy { .. } = o.kind {
                    assert_eq!(Iid::of(o.addr).u_bit(), 0, "{}", o.addr);
                }
            }
        }
    }

    #[test]
    fn duplicate_mac_only_in_carrier_a() {
        let w = world();
        let d = epochs::mar2015();
        let has_dup = |asn: u32| {
            emit_network(&w, asn, d)
                .iter()
                .any(|o| matches!(o.kind, TrueKind::Eui64 { mac } if mac == Mac::PAPER_DUPLICATE))
        };
        assert!(has_dup(asns::MOBILE_A), "carrier A should show the anomaly");
        assert!(!has_dup(asns::MOBILE_B));
        assert!(!has_dup(asns::JP_ISP));
    }

    #[test]
    fn growth_increases_population() {
        let w = world();
        let n14 = emit_network(&w, asns::US_BROADBAND, epochs::mar2014()).len();
        let n15 = emit_network(&w, asns::US_BROADBAND, epochs::mar2015()).len();
        assert!(
            n15 as f64 > 1.4 * n14 as f64,
            "population should grow: {n14} -> {n15}"
        );
    }

    #[test]
    fn emission_is_deterministic() {
        let w = world();
        let a = emit_network(&w, asns::EU_ISP, epochs::mar2015());
        let b = emit_network(&w, asns::EU_ISP, epochs::mar2015());
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.addr, y.addr);
            assert_eq!(x.hits, y.hits);
        }
    }
}
