//! Shared helpers for the cross-crate integration tests.

#![forbid(unsafe_code)]

use dragonfly_core::prelude::*;

/// A fast configuration on the paper's Figure 1 network (72 nodes):
/// short warm-up and measurement windows keep each test under a second
/// while leaving the bottleneck structure intact.
pub fn tiny_config(
    mechanism: MechanismSpec,
    arbiter: ArbiterPolicy,
    pattern: PatternSpec,
    load: f64,
) -> SimConfig {
    let mut cfg = SimConfig::small(mechanism, arbiter, pattern, load);
    cfg.params = DragonflyParams::figure1();
    cfg.warmup_cycles = 3_000;
    cfg.measure_cycles = 6_000;
    cfg
}

/// The reduced-scale (342-node) configuration with a shortened protocol,
/// for tests that need `h >= 3` (PB saturation detection) or a realistic
/// bottleneck ratio.
pub fn small_config(
    mechanism: MechanismSpec,
    arbiter: ArbiterPolicy,
    pattern: PatternSpec,
    load: f64,
) -> SimConfig {
    let mut cfg = SimConfig::small(mechanism, arbiter, pattern, load);
    cfg.warmup_cycles = 5_000;
    cfg.measure_cycles = 8_000;
    cfg
}

/// Every group's ADVc bottleneck router against the other routers of
/// its group, by packets injected during the measurement window.
#[derive(Debug)]
pub struct BottleneckShare {
    /// Groups in the machine.
    pub groups: usize,
    /// Groups whose named router injected no more than any other router
    /// of the group.
    pub groups_min: usize,
    /// Groups whose named router injected more than every other router
    /// of the group.
    pub groups_max: usize,
    /// Mean over groups of the named router's injections over the mean
    /// of the group's other routers.
    pub mean_share: f64,
}

/// Names each group's bottleneck analytically, through
/// [`Topology::advc_bottleneck`] (the router owning the global link to
/// group `g+1`: under palmtree, to all of `g+1..g+h` — and ADV+1's exit
/// router), not by searching the result for its minimum.
pub fn bottleneck_vs_rest(result: &RunResult, cfg: &SimConfig) -> BottleneckShare {
    let topo = Topology::new(cfg.params, cfg.arrangement);
    let (a, groups) = (cfg.params.a as usize, cfg.params.groups() as usize);
    let mut share = BottleneckShare { groups, groups_min: 0, groups_max: 0, mean_share: 0.0 };
    for g in 0..groups {
        let named = topo.advc_bottleneck(GroupId(g as u32)).idx();
        let injected = |r: usize| result.injected_per_router[r];
        let rest: Vec<u64> = (g * a..(g + 1) * a).filter(|&r| r != named).map(injected).collect();
        share.groups_min += usize::from(rest.iter().all(|&c| injected(named) <= c));
        share.groups_max += usize::from(rest.iter().all(|&c| injected(named) > c));
        let rest_mean = rest.iter().sum::<u64>() as f64 / rest.len() as f64;
        share.mean_share += injected(named) as f64 / rest_mean / groups as f64;
    }
    share
}

/// MD5 (RFC 1321) digest as a lowercase hex string — what `md5sum`
/// prints for a CLI artifact — without pulling in an external crate.
pub fn md5_hex(data: &[u8]) -> String {
    #[rustfmt::skip]
    const S: [u32; 64] = [
        7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22,
        5, 9, 14, 20, 5, 9, 14, 20, 5, 9, 14, 20, 5, 9, 14, 20,
        4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23,
        6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21,
    ];
    #[rustfmt::skip]
    const K: [u32; 64] = [
        0xd76aa478, 0xe8c7b756, 0x242070db, 0xc1bdceee,
        0xf57c0faf, 0x4787c62a, 0xa8304613, 0xfd469501,
        0x698098d8, 0x8b44f7af, 0xffff5bb1, 0x895cd7be,
        0x6b901122, 0xfd987193, 0xa679438e, 0x49b40821,
        0xf61e2562, 0xc040b340, 0x265e5a51, 0xe9b6c7aa,
        0xd62f105d, 0x02441453, 0xd8a1e681, 0xe7d3fbc8,
        0x21e1cde6, 0xc33707d6, 0xf4d50d87, 0x455a14ed,
        0xa9e3e905, 0xfcefa3f8, 0x676f02d9, 0x8d2a4c8a,
        0xfffa3942, 0x8771f681, 0x6d9d6122, 0xfde5380c,
        0xa4beea44, 0x4bdecfa9, 0xf6bb4b60, 0xbebfbc70,
        0x289b7ec6, 0xeaa127fa, 0xd4ef3085, 0x04881d05,
        0xd9d4d039, 0xe6db99e5, 0x1fa27cf8, 0xc4ac5665,
        0xf4292244, 0x432aff97, 0xab9423a7, 0xfc93a039,
        0x655b59c3, 0x8f0ccc92, 0xffeff47d, 0x85845dd1,
        0x6fa87e4f, 0xfe2ce6e0, 0xa3014314, 0x4e0811a1,
        0xf7537e82, 0xbd3af235, 0x2ad7d2bb, 0xeb86d391,
    ];
    let mut msg = data.to_vec();
    let bit_len = (data.len() as u64).wrapping_mul(8);
    msg.push(0x80);
    while msg.len() % 64 != 56 {
        msg.push(0);
    }
    msg.extend_from_slice(&bit_len.to_le_bytes());
    let (mut a0, mut b0, mut c0, mut d0) =
        (0x6745_2301u32, 0xefcd_ab89u32, 0x98ba_dcfeu32, 0x1032_5476u32);
    for chunk in msg.chunks_exact(64) {
        let mut m = [0u32; 16];
        for (i, w) in m.iter_mut().enumerate() {
            *w = u32::from_le_bytes(chunk[4 * i..4 * i + 4].try_into().unwrap());
        }
        let (mut a, mut b, mut c, mut d) = (a0, b0, c0, d0);
        for i in 0..64 {
            let (f, g) = match i / 16 {
                0 => ((b & c) | (!b & d), i),
                1 => ((d & b) | (!d & c), (5 * i + 1) % 16),
                2 => (b ^ c ^ d, (3 * i + 5) % 16),
                _ => (c ^ (b | !d), (7 * i) % 16),
            };
            let tmp = d;
            d = c;
            c = b;
            b = b.wrapping_add(
                a.wrapping_add(f).wrapping_add(K[i]).wrapping_add(m[g]).rotate_left(S[i]),
            );
            a = tmp;
        }
        a0 = a0.wrapping_add(a);
        b0 = b0.wrapping_add(b);
        c0 = c0.wrapping_add(c);
        d0 = d0.wrapping_add(d);
    }
    let mut out = String::with_capacity(32);
    for w in [a0, b0, c0, d0] {
        for byte in w.to_le_bytes() {
            out.push_str(&format!("{byte:02x}"));
        }
    }
    out
}

#[cfg(test)]
mod md5_tests {
    use super::md5_hex;

    #[test]
    fn rfc1321_vectors() {
        assert_eq!(md5_hex(b""), "d41d8cd98f00b204e9800998ecf8427e");
        assert_eq!(md5_hex(b"abc"), "900150983cd24fb0d6963f7d28e17f72");
        assert_eq!(
            md5_hex(b"The quick brown fox jumps over the lazy dog"),
            "9e107d9d372bb6826bd81d3542a419d6"
        );
        // Multi-block input (> 64 bytes) exercises the chunk loop.
        assert_eq!(md5_hex(&[b'a'; 1000]), "cabe45dcc9ae5b66ba86600cca6b8ba8");
    }
}
