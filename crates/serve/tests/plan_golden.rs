//! `/plan` byte-identity golden: [`compute_plan`] over a fixed grid of
//! model × schedule × cluster shape cells, each cell's response body (or
//! typed error body) hashed with FNV-1a and compared against a table
//! captured from a known-good build. A change that moves any byte of any
//! answer — a partition, a throughput's last digit, a journal field —
//! fails here with the cell that moved.
//!
//! The grid is the 10-model zoo × the 4 served schedules × 7 shapes of 2
//! to 24 GPUs (280 cells). Device memory cycles through native, 8 GiB, a
//! tight 4 GiB and an infeasible 0.25 GiB; link rates and background jobs
//! cycle independently. The digest of the whole table is checked too, so
//! a stale entry cannot hide.

use ap_cluster::GpuKind;
use ap_pipesim::ScheduleKind;
use ap_serve::api::{
    compute_plan, BgJobSpec, ClusterSpec, PlanRequest, PlannerConfig, KNOWN_MODELS,
};
use ap_serve::cache::fnv1a64;

const SCHEDULES: [&str; 4] = ["pipedream_async", "gpipe", "dapple", "pipedream_2bw"];
/// `(n_servers, gpus_per_server)`: 2 to 24 GPUs.
const SHAPES: [(usize, usize); 7] = [(1, 2), (2, 2), (2, 4), (4, 2), (3, 4), (4, 4), (6, 4)];
const MEMORY_GB: [Option<f64>; 4] = [None, Some(8.0), Some(4.0), Some(0.25)];
const LINKS: [f64; 5] = [5.0, 10.0, 25.0, 40.0, 100.0];
/// FNV-1a of [`GOLDEN`] as [`table_digest`] renders it.
const GOLDEN_TABLE: u64 = 0x41fd09f105245411;

/// Every cell of the grid, in table order.
fn grid() -> Vec<PlanRequest> {
    let mut cells = Vec::new();
    for model in KNOWN_MODELS {
        for schedule in SCHEDULES {
            for (n_servers, gpus_per_server) in SHAPES {
                let i = cells.len();
                let n_gpus = n_servers * gpus_per_server;
                let background_jobs = match i % 3 {
                    0 => Vec::new(),
                    1 => vec![BgJobSpec {
                        gpus: vec![0],
                        gbps: 5.0,
                    }],
                    _ => vec![
                        BgJobSpec {
                            gpus: vec![0, 1],
                            gbps: 8.0,
                        },
                        BgJobSpec {
                            gpus: vec![n_gpus - 1],
                            gbps: 2.0,
                        },
                    ],
                };
                cells.push(PlanRequest {
                    model: model.to_string(),
                    cluster: ClusterSpec {
                        n_servers,
                        gpus_per_server,
                        gpu: GpuKind::P100,
                        link_gbps: LINKS[(i / 4) % LINKS.len()],
                        memory_gb: MEMORY_GB[i % MEMORY_GB.len()],
                        background_jobs,
                    },
                    planner: PlannerConfig::default(),
                    schedule: ScheduleKind::parse(schedule).expect("served schedule id"),
                });
            }
        }
    }
    cells
}

/// FNV-1a of the pretty-printed response body, or of the error body for
/// a typed failure.
fn digest(req: &PlanRequest) -> u64 {
    let body = match compute_plan(req) {
        Ok(body) => body,
        Err(e) => e.body(),
    };
    fnv1a64(&body.pretty())
}

/// FNV-1a over the whole table, in cell order.
fn table_digest(table: &[u64]) -> u64 {
    let text: Vec<String> = table.iter().map(|d| format!("{d:016x}")).collect();
    fnv1a64(&text.join("\n"))
}

/// Per-cell body digests, in [`grid`] order.
const GOLDEN: [u64; 280] = [
    0xa45f09fc93512d0f,
    0xd09bc6b08eb6467b,
    0xb69184fdba7a49ac,
    0xef831da8c8de2a5f,
    0xf44910ba80a1ff4b,
    0x3aab04e5e58c89f6,
    0xe3217e9a0b414c52,
    0x03b9de83d8473336,
    0x3560b204949b5efd,
    0x4519d363ab78b87e,
    0xa58322ab6316f58c,
    0xe272d919452132b7,
    0x34b7600095cf3637,
    0x96c678ab488d0ae4,
    0x3903adf92f7f98a5,
    0xb3d933bddeb0c988,
    0x83c175bdb8813e6b,
    0x7f072de0e68ee5b8,
    0x9b80d2d2e81e2c5e,
    0x85f3c0c1dfba32e0,
    0x87f0ef673edce06a,
    0x2826e1d92bf8c024,
    0x4441d5ef5e0e1e67,
    0x1a57170a9c824a14,
    0x0d4231b5631e0ac4,
    0xd3860c8ed9bc727d,
    0xd95ea4c36740858e,
    0x007cfb2cf98d1892,
    0x6a89b19dab354730,
    0xc5530570ee140e0a,
    0xa525371617717fba,
    0x2c9fb67fae4efa4f,
    0xc44a051f1fde9748,
    0xa3b60ddf589323d8,
    0x929fd164e4f0748f,
    0x60f7a19f051c0185,
    0xf2c7c3701c13f169,
    0xfc51577fa0464624,
    0xf909bc9dba1f99a3,
    0xb18568a82296cea7,
    0xfe90e2dc76887779,
    0x1861131c8fd902ed,
    0xe782c4c2b2b5acf4,
    0x5fd77566a9d0f57e,
    0xcfc71d855af7f426,
    0x62f4720dcd0d357a,
    0x623e6b682654dd5f,
    0x7339b4c616747e91,
    0x49d38938158ec63f,
    0xbef920b749aa30f5,
    0x301583201a2e0983,
    0x20ac3fa75b7f4ada,
    0x1b9ea76e79ff55b4,
    0x13eb11a3bdc7eec2,
    0x0d383944fdc0544c,
    0xf8bd30dae6f1e894,
    0xa986133ce592cf5f,
    0x9ce35a67ca71072f,
    0xe40f6e37c1021da3,
    0x544e21cd39226329,
    0xc0cd0815903450c3,
    0x9b23b582ca063364,
    0xb3dda47e6505c708,
    0x10f9adcd545d2df8,
    0x2ea591d5ae172af1,
    0x1945664e458fff26,
    0xa72dd3dd0bfa33fa,
    0x1a69518baeb87cfe,
    0x8e7464addb26582b,
    0xe109200c2534f429,
    0xd5a9bf181a517feb,
    0x65da0f81380a372e,
    0x4c23807e5e5a3a70,
    0x82cacd925628fb76,
    0x502355cf3318f54b,
    0x4ffde20963b20e47,
    0xd3f9a25fa008d01e,
    0x3005d2a4edc0355b,
    0xba0d2e4208662775,
    0xd35b945968d8c659,
    0xe66a8c07ed3aa9a4,
    0x29690801f254c5ac,
    0x321f7291d8a91a59,
    0x7b3eed6db269f44c,
    0x50287d6e689be5e4,
    0xaae9fdd19c260570,
    0x81dcdadd59efd2f2,
    0xdedfa4e022f0699f,
    0x4e34f6dec29227b9,
    0xbbdcea5112be658b,
    0xe5f671d0b0f6412d,
    0x72ab60bca6087a05,
    0x4b14d1632d2cb44f,
    0x40a7d045d17aa101,
    0x7a32788ba0220980,
    0x89adc53a70b7828f,
    0x1a7b3343f9059d0f,
    0x1451eab6ed03bdb5,
    0x45bd885534b53632,
    0xf14bda256d972923,
    0x2ca04494415d7190,
    0x88f6e9661b8a12b5,
    0x3f870b0f296c33fe,
    0xa968b451bad4e0a0,
    0x2f5979bf98316837,
    0xb4289954ef73acf1,
    0xfc4f7a63160e286a,
    0x468fda10d4ef76fc,
    0x10e01a614d6d5481,
    0x987025e9d6f65b6f,
    0x2cad3a21198f4b8a,
    0x697c24dcc6cb895b,
    0x8c0b0de652061535,
    0x4b10e43ac03691e2,
    0xd15ee8b18bbc9fc8,
    0xaa82580ce6a57deb,
    0x710ffb99cdd5bb1b,
    0xaf66f1f947e939f4,
    0xe10104656fc32986,
    0x68a997769fb0d1c8,
    0x8dfbf1c5a967c62a,
    0x337c89302f3448be,
    0x606f9c4ee3c5c858,
    0x9dbece9542ab7d13,
    0xd4246f08b8e1a3d6,
    0x3e6b88a84d865592,
    0x96e6b0e3ae7f6644,
    0xb29d15de92930855,
    0x52d0cb8b64781ad7,
    0xdba77164ab5aeba2,
    0xd6b7f9716e95f494,
    0xaebe587b7b2aaf95,
    0xf97ec751f71c7aa4,
    0x1adc7bdac94b4353,
    0xfa181588f880a713,
    0xf706cf1858de808e,
    0x95ce93822d2b75c5,
    0x6d345df2b30b65d1,
    0x0701b5bbb9686195,
    0x2cdf03f0716901b7,
    0x16c6bacbcc69f907,
    0x31504bd2ee4fc877,
    0xb5f0790ad949e981,
    0xe70c479b9023597d,
    0xe9689b204a1f26b2,
    0x576ac0ea49942ae0,
    0x0efc6a6a22dd3276,
    0x3fc7c0f368598d4c,
    0xede36a2f37fc3535,
    0x464b155844952ecd,
    0xfef72446067a25c1,
    0xccbec2c846730ca7,
    0x2021869b94fc3957,
    0x7a03663a7efe1f3e,
    0x00c03859bfaee07a,
    0xf89067d182ecc207,
    0x69d06da42e9650b5,
    0x143c74b5c3640ff8,
    0x0b02facc6409281f,
    0xf89067d182ecc207,
    0x42d74acf60ec6740,
    0xb8914d42cc7b4503,
    0x8b2bde1c1258fe2b,
    0x0de1f0454d2e4347,
    0xa091f1355f14164e,
    0x4d7ab80168419934,
    0x9f5e4781eb560b70,
    0x0c36aa54b971c596,
    0x78ff365d2c4a4978,
    0x910b86a71fbf8efb,
    0x39c868ad405c01b1,
    0xa11618a891361243,
    0xf1dd9157cf198008,
    0x19d16bf82e817ad1,
    0x9743bc451242f90c,
    0xa59c1bc78cd2c4ce,
    0x7afdb53a4ac1e7d1,
    0x54ad008d2c0b7cbb,
    0x6cbba9ff4842d32e,
    0x43466fb2cc88024e,
    0x645e89c0351a859c,
    0xa3fff37190af550c,
    0x68b009520dbb22c3,
    0x44d79dc756403e99,
    0x7f1414524eaafe0e,
    0x6f96cad2487cc860,
    0x995ca361c937b14d,
    0x732e82287517c4a4,
    0x638e349920f76f49,
    0x46f7a27fb5386a99,
    0x5c8d4090d0003981,
    0xac9cea083827985e,
    0x6f0dfb39c8ba6747,
    0x6f978c99b992dd83,
    0xf5b0a5f636a9dd87,
    0x74d5b32894d43a74,
    0x77d63076a5c58991,
    0xbc7566fdd740d096,
    0xe721718d5e22bb80,
    0x8b8909909f77f1e7,
    0x1b1c55deeb01dc0f,
    0x73b7784e1eabb4dc,
    0x730f6cfe9773aea3,
    0x58735da758c48237,
    0x5b52fea4468ebba4,
    0x8ede4e2263db4084,
    0x1f8bb90a46d00fea,
    0xa0cb11e2441302ca,
    0x1df74944f4b870c8,
    0xb8a62665e46484e9,
    0x62411192ea5666d3,
    0xa1a53530e66a53f8,
    0x3cac679518067517,
    0x0fc1848acd1b9faf,
    0x01ad2cacc888b821,
    0x7c783df4dbb32c16,
    0x9c810d64e271da1b,
    0xa1d22d381e1b0519,
    0x3162fadacc7d1b08,
    0x263dc53339e43ef6,
    0x49897643b19cab52,
    0xe4ce95a174cd80f5,
    0x93baa28d7aa5fdbe,
    0x3cadf1c1ac8e4485,
    0xc70312ff61921841,
    0x67574c1665af80db,
    0x0c580df43d7604ad,
    0xaecd4eda78334bec,
    0xeb052a7dbbf889c8,
    0x0c6a508567457bca,
    0x4c4e0769ffa48c6e,
    0x328cb32a3855cb40,
    0xe97a0d07dda6692a,
    0x93dce4b7f1aa1888,
    0x90fb352ec12d0412,
    0xc0a9dfc16254e85e,
    0x0ce7d2cd0324ad6c,
    0x59d0b74c1b354df4,
    0x15a6e2db640e6fd5,
    0x7cf809ceec004fcf,
    0x251a6a3fa6c9e1cb,
    0x251756b4093373e0,
    0x669b30dff2cdd05f,
    0xde3209a5f9a2aba7,
    0x364bc7e2a7626ef3,
    0x46ab7495cc987870,
    0x1de9a0ce1bbda3aa,
    0x71d10beaed613747,
    0xb9e9ae3d5ee03986,
    0x4a235c10e43c34ef,
    0xbe67321e5a38d3ce,
    0xfc26bb5ea5f53f3b,
    0x56af2e5440fe2836,
    0xc47dfea5bb1aedff,
    0x5e6feba208adb2f3,
    0xff4835f1c8772526,
    0x6eecae749b3bbcdc,
    0xa4343ec71f0984df,
    0xb3c4f06bf78be584,
    0x73a7c07d3439e50e,
    0x3c032791aabd1110,
    0x04c39ec25b52d2d5,
    0x1d85c934bb9a6d8e,
    0xf13183d35ccbc9a9,
    0x706d181bd5baa6b0,
    0x79ea2035027bed1c,
    0xdb96d9f7f88ccfcd,
    0x4874f9c16363b53d,
    0xcbdcebd22bb6b30d,
    0x7f9c5de0c46d71e0,
    0x9827b051e5370d38,
    0x0e7d547553837ee9,
    0xc101139a5885c8d0,
    0x2853d3e91388f9a3,
    0x4410d3e36a9bcdf8,
    0x1c6c745fee7837f6,
    0x2709961ee265894e,
    0x96863ef4a6dc40ee,
    0xc15942b6e6b9b6e3,
    0x66ed6b48dd0a4f02,
];

#[test]
fn golden_table_is_whole() {
    assert_eq!(grid().len(), GOLDEN.len());
    assert_eq!(table_digest(&GOLDEN), GOLDEN_TABLE);
}

#[test]
fn plan_bodies_are_byte_identical_to_the_golden() {
    let moved: Vec<String> = grid()
        .iter()
        .zip(GOLDEN)
        .enumerate()
        .filter_map(|(i, (req, want))| {
            let got = digest(req);
            (got != want).then(|| {
                format!(
                    "cell {i} ({} {} {}x{} link {} mem {:?} bg {}): {got:016x} != {want:016x}",
                    req.model,
                    req.schedule.id(),
                    req.cluster.n_servers,
                    req.cluster.gpus_per_server,
                    req.cluster.link_gbps,
                    req.cluster.memory_gb,
                    req.cluster.background_jobs.len(),
                )
            })
        })
        .collect();
    assert!(
        moved.is_empty(),
        "{} cells moved:\n{}",
        moved.len(),
        moved.join("\n")
    );
}
