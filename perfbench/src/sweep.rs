//! `table2-sweep`: one op is one verified pass over the Table II apps and
//! the Table III Parboil kernels. As in the paper's host program, every
//! input is written and every result read through the queue; outputs are
//! first filled with a sentinel, so a launch that did not run is caught.
//! `histogram256` accumulates and `prefixSum` runs in place, so their
//! buffers are reset by those writes before each launch.

use std::sync::Arc;
use std::time::Instant;

use cl_kernels::apps::{
    binomial, blackscholes, histogram, matrixmul, prefixsum, reduction, square, vectoradd,
};
use cl_kernels::parboil::{cp, mrifhd, mriq};
use cl_kernels::util::{random_f32, random_u32};
use ocl_rt::{Buffer, CommandQueue, Context, Kernel, MemFlags, NDRange, Pod};
use par_for::{Schedule, Team};

use crate::common::{
    api_us, check_f32, check_u32, context, derive, device, median_f64, queue_config, timed, Host,
    Layers, LoopOut, L,
};
use crate::drive::{self, Op};
use crate::report::Outcome;
use crate::Args;

/// Sweep kernels, in pass order; `kernels.<name>.ns_per_item` each.
pub const KERNELS: [&str; 14] = [
    "square",
    "vectoradd",
    "matrixMul",
    "reduce",
    "histogram256",
    "prefixSum",
    "blackScholes",
    "binomialoption",
    "matrixMulNaive",
    "cenergy",
    "computePhiMag",
    "computeQ",
    "RhoPhi",
    "FH",
];

/// Kernels with an OpenMP twin timed in the traced run.
pub const TWINS: [&str; 4] = ["square", "vectoradd", "matrixMul", "binomialoption"];

/// Problem sizes. The whole pass stays cache-resident (about 12 MB copied
/// per pass, 23 MB peak RSS): a pass that streams ~100 MB through the
/// shared L3 runs at the speed of whatever else the host's other tenants
/// keep in that cache. Global sizes are the smallest Table II/III entries
/// where those fit (square, vectoradd, prefixSum, cenergy, MRI) and a
/// 1/4–1/16 scale of it otherwise; the inner dimensions the tables leave
/// open (matrix depth, option count, atoms, k-space samples) are chosen so
/// no app takes more than about a third of a pass.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub square: usize,
    pub vadd: usize,
    /// `(w, h, depth)` of both matrix multiplies; 16×16 tiles.
    pub mm: (usize, usize, usize),
    pub reduce: usize,
    pub hist: usize,
    pub scan: usize,
    /// Black-Scholes launch grid (16×16 groups) and option count.
    pub bs_grid: (usize, usize),
    pub bs_options: usize,
    /// Binomial options; one 255-item group per option.
    pub bin_options: usize,
    /// CP grid (16×8 groups) and atom count.
    pub cp: (usize, usize),
    pub atoms: usize,
    /// MRI `computePhiMag`/`RhoPhi` length (local 512).
    pub mri_small: usize,
    /// MRI `computeQ`/`FH` voxels (local 256) and k-space samples.
    pub mri_voxels: usize,
    pub mri_samples: usize,
}

impl Sizes {
    pub fn resident() -> Sizes {
        Sizes {
            square: 100_000,
            vadd: 110_000,
            mm: (256, 320, 16),
            reduce: 160_000,
            hist: 102_400,
            scan: 1024,
            bs_grid: (320, 320),
            bs_options: 320 * 320 / 4,
            bin_options: 300,
            cp: (64, 512),
            atoms: 64,
            mri_small: 3072,
            mri_voxels: 32_768,
            mri_samples: 64,
        }
    }

    #[cfg(test)]
    pub fn tiny() -> Sizes {
        Sizes {
            square: 4096,
            vadd: 4400,
            mm: (32, 64, 16),
            reduce: 2560,
            hist: 4096,
            scan: 1024,
            bs_grid: (32, 32),
            bs_options: 1024,
            bin_options: 4,
            cp: (32, 16),
            atoms: 8,
            mri_small: 1024,
            mri_voxels: 512,
            mri_samples: 8,
        }
    }
}

const BIN_STEPS: usize = 255;
/// Fresh set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Verified warm-up passes in each set-up; the first builds every plan.
const WARMUP: usize = 2;
const COUNT_OPS: u64 = 12;
const TRACED_OPS: u64 = 12;
/// Passes interleaved with the OpenMP twins in the traced run.
const TWIN_PASSES: u64 = 6;
const LAT_CAP: usize = 1 << 16;

enum Input {
    F32(Buffer<f32>, Vec<f32>),
    U32(Buffer<u32>, Vec<u32>),
}

enum Output {
    F32 {
        buf: Buffer<f32>,
        want: Vec<f32>,
        got: Vec<f32>,
        floor: f32,
        tol: f32,
    },
    U32 {
        buf: Buffer<u32>,
        want: Vec<u32>,
        got: Vec<u32>,
    },
}

/// One app of the pass: its kernel, geometry, inputs and checked outputs.
pub struct App {
    name: &'static str,
    kernel: Arc<dyn Kernel>,
    range: NDRange,
    items: usize,
    inputs: Vec<Input>,
    outputs: Vec<Output>,
    /// Serial-reference time spent building `want`, seconds.
    reference_s: f64,
    /// Execution time (completed − started) summed over launches.
    pub run_ns: u64,
    pub launches: u64,
}

fn f32_out(
    ctx: &Context,
    want: Vec<f32>,
    floor: f32,
    tol: f32,
) -> Result<(Buffer<f32>, Output), String> {
    let buf = ctx
        .buffer::<f32>(MemFlags::default(), want.len())
        .map_err(|e| e.to_string())?;
    let got = vec![0.0; want.len()];
    Ok((
        buf.clone(),
        Output::F32 {
            buf,
            want,
            got,
            floor,
            tol,
        },
    ))
}

fn input<T: Pod>(ctx: &Context, host: &[T]) -> Result<Buffer<T>, String> {
    ctx.buffer::<T>(MemFlags::default(), host.len())
        .map_err(|e| e.to_string())
}

/// Time the serial reference.
fn reference<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

#[allow(clippy::too_many_arguments)]
fn app(
    name: &'static str,
    kernel: Arc<dyn Kernel>,
    range: NDRange,
    items: usize,
    inputs: Vec<Input>,
    outputs: Vec<Output>,
    reference_s: f64,
) -> App {
    App {
        name,
        kernel,
        range,
        items,
        inputs,
        outputs,
        reference_s,
        run_ns: 0,
        launches: 0,
    }
}

/// Tiled (Table II `matrixMul`) or naive multiply; 16×16 workgroups.
fn matmul(ctx: &Context, sz: &Sizes, seed: u64, naive: bool) -> Result<App, String> {
    let (w, h, depth) = sz.mm;
    let salt = if naive { 40 } else { 4 };
    let ha = random_f32(derive(seed, salt), h * depth, -1.0, 1.0);
    let hb = random_f32(derive(seed, salt + 1), depth * w, -1.0, 1.0);
    let (want, rs) = reference(|| matrixmul::reference(&ha, &hb, w, h, depth));
    let (a, b) = (input(ctx, &ha)?, input(ctx, &hb)?);
    let (c, o) = f32_out(ctx, want, 1e-3, 5e-3)?;
    let (name, k): (&'static str, Arc<dyn Kernel>) = if naive {
        let k = matrixmul::MatrixMulNaive {
            a: a.clone(),
            b: b.clone(),
            c,
            w,
            h,
            k: depth,
        };
        ("matrixMulNaive", Arc::new(k))
    } else {
        let k = matrixmul::MatrixMul {
            a: a.clone(),
            b: b.clone(),
            c,
            w,
            h,
            k: depth,
        };
        ("matrixMul", Arc::new(k))
    };
    let inputs = vec![Input::F32(a, ha), Input::F32(b, hb)];
    Ok(app(
        name,
        k,
        NDRange::d2(w, h).local2(16, 16),
        w * h,
        inputs,
        vec![o],
        rs,
    ))
}

/// Generate seeded inputs, compute serial references and allocate buffers
/// for every app of the pass, in [`KERNELS`] order.
pub fn build_apps(ctx: &Context, sz: &Sizes, seed: u64) -> Result<Vec<App>, String> {
    let s = |salt: u64| derive(seed, salt);
    let mut apps = Vec::with_capacity(KERNELS.len());
    let mut push = |a: App| apps.push(a);

    // Table II.
    let n = sz.square;
    let h = random_f32(s(1), n, -2.0, 2.0);
    let (want, rs) = reference(|| square::reference(&h));
    let inp = input(ctx, &h)?;
    let (out, o) = f32_out(ctx, want, 1e-5, 1e-5)?;
    let k = Arc::new(square::Square {
        input: inp.clone(),
        output: out,
        n,
        items_per_wi: 1,
    });
    push(app(
        "square",
        k,
        NDRange::d1(n),
        n,
        vec![Input::F32(inp, h)],
        vec![o],
        rs,
    ));

    let n = sz.vadd;
    let (ha, hb) = (
        random_f32(s(2), n, -10.0, 10.0),
        random_f32(s(3), n, -10.0, 10.0),
    );
    let (want, rs) = reference(|| vectoradd::reference(&ha, &hb));
    let (a, b) = (input(ctx, &ha)?, input(ctx, &hb)?);
    let (c, o) = f32_out(ctx, want, 1e-5, 1e-5)?;
    let k = Arc::new(vectoradd::VectorAdd {
        a: a.clone(),
        b: b.clone(),
        c,
        n,
        items_per_wi: 1,
    });
    let inputs = vec![Input::F32(a, ha), Input::F32(b, hb)];
    push(app("vectoradd", k, NDRange::d1(n), n, inputs, vec![o], rs));

    push(matmul(ctx, sz, seed, false)?);

    let n = sz.reduce;
    let wg = 256;
    let h = random_f32(s(6), n, -1.0, 1.0);
    let groups = n.div_ceil(wg);
    let (want, rs) = reference(|| {
        (0..groups)
            .map(|g| {
                h[g * wg..((g + 1) * wg).min(n)]
                    .iter()
                    .map(|&x| x as f64)
                    .sum::<f64>() as f32
            })
            .collect::<Vec<f32>>()
    });
    debug_assert!(
        (want.iter().map(|&x| x as f64).sum::<f64>() - reduction::reference(&h)).abs() < 1e-2
    );
    let inp = input(ctx, &h)?;
    let (partials, o) = f32_out(ctx, want, 1.0, 1e-3)?;
    let k = Arc::new(reduction::Reduction {
        input: inp.clone(),
        partials,
        n,
    });
    push(app(
        "reduce",
        k,
        NDRange::d1(groups * wg).local1(wg),
        n,
        vec![Input::F32(inp, h)],
        vec![o],
        rs,
    ));

    let n = sz.hist;
    let wg = 128;
    let h = random_u32(s(7), n, histogram::BINS as u32);
    let (want, rs) = reference(|| histogram::reference(&h));
    let inp = input(ctx, &h)?;
    let bins = ctx
        .buffer::<u32>(MemFlags::default(), histogram::BINS)
        .map_err(|e| e.to_string())?;
    let k = Arc::new(histogram::Histogram {
        input: inp.clone(),
        bins: bins.clone(),
        n,
    });
    let zeros = vec![0u32; histogram::BINS];
    push(app(
        "histogram256",
        k,
        NDRange::d1(n.div_ceil(wg) * wg).local1(wg),
        n,
        vec![Input::U32(inp, h), Input::U32(bins.clone(), zeros)],
        vec![Output::U32 {
            buf: bins,
            want,
            got: vec![0; histogram::BINS],
        }],
        rs,
    ));

    let n = sz.scan;
    let h = random_f32(s(8), n, 0.0, 1.0);
    let (want, rs) = reference(|| prefixsum::reference(&h));
    let (data, o) = f32_out(ctx, want, 1e-3, 1e-3)?;
    let k = Arc::new(prefixsum::PrefixSum {
        data: data.clone(),
        n,
    });
    push(app(
        "prefixSum",
        k,
        NDRange::d1(n).local1(n),
        n,
        vec![Input::F32(data, h)],
        vec![o],
        rs,
    ));

    let n = sz.bs_options;
    let (hs, hx, ht) = (
        random_f32(s(9), n, 5.0, 30.0),
        random_f32(s(10), n, 1.0, 100.0),
        random_f32(s(11), n, 0.25, 10.0),
    );
    let ((wc, wp), rs) = reference(|| blackscholes::reference(&hs, &hx, &ht));
    let (bs, bx, bt) = (input(ctx, &hs)?, input(ctx, &hx)?, input(ctx, &ht)?);
    let (call, oc) = f32_out(ctx, wc, 1e-2, 1e-3)?;
    let (put, op) = f32_out(ctx, wp, 1e-2, 1e-3)?;
    let (gx, gy) = sz.bs_grid;
    let k = Arc::new(blackscholes::BlackScholes {
        stock: bs.clone(),
        strike: bx.clone(),
        years: bt.clone(),
        call,
        put,
        n_options: n,
        grid_items: gx * gy,
    });
    push(app(
        "blackScholes",
        k,
        NDRange::d2(gx, gy).local2(16, 16),
        gx * gy,
        vec![Input::F32(bs, hs), Input::F32(bx, hx), Input::F32(bt, ht)],
        vec![oc, op],
        rs,
    ));

    let n = sz.bin_options;
    let (hs, hx, ht) = (
        random_f32(s(12), n, 5.0, 30.0),
        random_f32(s(13), n, 1.0, 100.0),
        random_f32(s(14), n, 0.25, 10.0),
    );
    let (want, rs) = reference(|| binomial::reference(&hs, &hx, &ht, BIN_STEPS));
    let (bs, bx, bt) = (input(ctx, &hs)?, input(ctx, &hx)?, input(ctx, &ht)?);
    let (out, o) = f32_out(ctx, want, 1e-2, 1e-3)?;
    let k = Arc::new(binomial::BinomialOption {
        stock: bs.clone(),
        strike: bx.clone(),
        years: bt.clone(),
        out,
        steps: BIN_STEPS,
    });
    push(app(
        "binomialoption",
        k,
        NDRange::d1(n * BIN_STEPS).local1(BIN_STEPS),
        n * BIN_STEPS,
        vec![Input::F32(bs, hs), Input::F32(bx, hx), Input::F32(bt, ht)],
        vec![o],
        rs,
    ));

    push(matmul(ctx, sz, seed, true)?);

    // Table III.
    let (nx, ny) = sz.cp;
    let atoms = cp::Atoms::generate(s(15), sz.atoms, nx as f32 * cp::SPACING);
    let (want, rs) = reference(|| cp::reference(&atoms, nx, ny));
    let a = input(ctx, &atoms.data)?;
    let (grid, o) = f32_out(ctx, want, 1e-2, 1e-3)?;
    let k = Arc::new(cp::Cenergy {
        atoms: a.clone(),
        grid,
        nx,
        ny,
        items_per_wi: 1,
    });
    push(app(
        "cenergy",
        k,
        NDRange::d2(nx, ny).local2(16, 8),
        nx * ny,
        vec![Input::F32(a, atoms.data)],
        vec![o],
        rs,
    ));

    let n = sz.mri_small;
    let (hr, hi) = (
        random_f32(s(16), n, -1.0, 1.0),
        random_f32(s(17), n, -1.0, 1.0),
    );
    let (want, rs) = reference(|| mriq::reference_phimag(&hr, &hi));
    let (pr, pi) = (input(ctx, &hr)?, input(ctx, &hi)?);
    let (mag, o) = f32_out(ctx, want, 1e-4, 1e-4)?;
    let k = Arc::new(mriq::ComputePhiMag {
        phi_r: pr.clone(),
        phi_i: pi.clone(),
        phi_mag: mag,
        n,
        items_per_wi: 1,
    });
    push(app(
        "computePhiMag",
        k,
        NDRange::d1(n).local1(512),
        n,
        vec![Input::F32(pr, hr), Input::F32(pi, hi)],
        vec![o],
        rs,
    ));

    let n = sz.mri_voxels;
    let vox = mriq::Voxels::generate(s(18), n);
    let traj = mriq::Trajectory::generate(s(19), sz.mri_samples);
    let ((wr, wi), rs) = reference(|| mriq::reference_q(&vox, &traj));
    let bufs: Vec<Buffer<f32>> = [
        &vox.x,
        &vox.y,
        &vox.z,
        &traj.kx,
        &traj.ky,
        &traj.kz,
        &traj.phi_mag,
    ]
    .iter()
    .map(|h| input(ctx, h))
    .collect::<Result<_, _>>()?;
    let (qr, or) = f32_out(ctx, wr, 1e-1, 1e-2)?;
    let (qi, oi) = f32_out(ctx, wi, 1e-1, 1e-2)?;
    let k = Arc::new(mriq::ComputeQ {
        x: bufs[0].clone(),
        y: bufs[1].clone(),
        z: bufs[2].clone(),
        kx: bufs[3].clone(),
        ky: bufs[4].clone(),
        kz: bufs[5].clone(),
        phi_mag: bufs[6].clone(),
        qr,
        qi,
        n_voxels: n,
        items_per_wi: 1,
    });
    let hosts = [vox.x, vox.y, vox.z, traj.kx, traj.ky, traj.kz, traj.phi_mag];
    let inputs = bufs
        .into_iter()
        .zip(hosts)
        .map(|(b, h)| Input::F32(b, h))
        .collect();
    push(app(
        "computeQ",
        k,
        NDRange::d1(n).local1(256),
        n,
        inputs,
        vec![or, oi],
        rs,
    ));

    let n = sz.mri_small;
    let hosts: Vec<Vec<f32>> = (20..24)
        .map(|salt| random_f32(s(salt), n, -1.0, 1.0))
        .collect();
    let ((wr, wi), rs) =
        reference(|| mrifhd::reference_rhophi(&hosts[0], &hosts[1], &hosts[2], &hosts[3]));
    let bufs: Vec<Buffer<f32>> = hosts
        .iter()
        .map(|h| input(ctx, h))
        .collect::<Result<_, _>>()?;
    let (rr, or) = f32_out(ctx, wr, 1e-3, 1e-4)?;
    let (ri, oi) = f32_out(ctx, wi, 1e-3, 1e-4)?;
    let k = Arc::new(mrifhd::RhoPhi {
        phi_r: bufs[0].clone(),
        phi_i: bufs[1].clone(),
        d_r: bufs[2].clone(),
        d_i: bufs[3].clone(),
        rho_r: rr,
        rho_i: ri,
        n,
        items_per_wi: 1,
    });
    let inputs = bufs
        .into_iter()
        .zip(hosts)
        .map(|(b, h)| Input::F32(b, h))
        .collect();
    push(app(
        "RhoPhi",
        k,
        NDRange::d1(n).local1(512),
        n,
        inputs,
        vec![or, oi],
        rs,
    ));

    let n = sz.mri_voxels;
    let m = sz.mri_samples;
    let vox = mriq::Voxels::generate(s(24), n);
    let traj = mriq::Trajectory::generate(s(25), m);
    let (hrr, hri) = (
        random_f32(s(26), m, -1.0, 1.0),
        random_f32(s(27), m, -1.0, 1.0),
    );
    let ((wr, wi), rs) = reference(|| mrifhd::reference_fh(&vox, &traj, &hrr, &hri));
    let hosts = [vox.x, vox.y, vox.z, traj.kx, traj.ky, traj.kz, hrr, hri];
    let bufs: Vec<Buffer<f32>> = hosts
        .iter()
        .map(|h| input(ctx, h))
        .collect::<Result<_, _>>()?;
    let (fr, or) = f32_out(ctx, wr, 1e-1, 1e-2)?;
    let (fi, oi) = f32_out(ctx, wi, 1e-1, 1e-2)?;
    let k = Arc::new(mrifhd::Fh {
        x: bufs[0].clone(),
        y: bufs[1].clone(),
        z: bufs[2].clone(),
        kx: bufs[3].clone(),
        ky: bufs[4].clone(),
        kz: bufs[5].clone(),
        rho_r: bufs[6].clone(),
        rho_i: bufs[7].clone(),
        fh_r: fr,
        fh_i: fi,
        n_voxels: n,
        items_per_wi: 1,
    });
    let inputs = bufs
        .into_iter()
        .zip(hosts)
        .map(|(b, h)| Input::F32(b, h))
        .collect();
    push(app(
        "FH",
        k,
        NDRange::d1(n).local1(256),
        n,
        inputs,
        vec![or, oi],
        rs,
    ));

    debug_assert!(apps.iter().map(|a| a.name).eq(KERNELS));
    Ok(apps)
}

/// The pass: every app's inputs written, outputs filled with a sentinel,
/// the kernel enqueued, outputs read back and checked.
pub struct Sweep {
    pub q: CommandQueue,
    pub apps: Vec<App>,
}

impl Sweep {
    /// Build the apps and make the warm-up passes. Returns the plan-miss
    /// cost, µs: Σ over kernels of API time (submitted − queued) of the
    /// first enqueue − that of the steady ones.
    pub fn new(
        ctx: &Context,
        sz: &Sizes,
        seed: u64,
        tracing: bool,
    ) -> Result<(Sweep, f64), String> {
        let apps = build_apps(ctx, sz, seed)?;
        let mut s = Sweep {
            q: ctx.queue_with(queue_config(tracing, false)),
            apps,
        };
        let mut calls = vec![Vec::new(); s.apps.len()];
        for _ in 0..WARMUP {
            let mut l = Layers::default();
            s.pass(&mut l, |i, api| calls[i].push(api))?;
        }
        let miss = calls
            .iter()
            .map(|c| c[0] - median_f64(c[1..].to_vec()))
            .sum();
        for a in &mut s.apps {
            (a.run_ns, a.launches) = (0, 0);
        }
        Ok((s, miss))
    }

    /// One pass; `api(i, us)` sees the API time of app `i`'s enqueue.
    fn pass(&mut self, l: &mut Layers, mut api: impl FnMut(usize, f64)) -> Result<(), String> {
        let q = &self.q;
        let err = |e: ocl_rt::ClError| e.to_string();
        for (i, a) in self.apps.iter_mut().enumerate() {
            timed(l, L::Copy, || -> Result<(), String> {
                for o in &a.outputs {
                    match o {
                        Output::F32 { buf, .. } => q.fill_buffer(buf, f32::NAN).map_err(err)?,
                        Output::U32 { buf, .. } => q.fill_buffer(buf, u32::MAX).map_err(err)?,
                    };
                }
                for inp in &a.inputs {
                    match inp {
                        Input::F32(b, h) => q.write_buffer(b, 0, h).map_err(err)?,
                        Input::U32(b, h) => q.write_buffer(b, 0, h).map_err(err)?,
                    };
                }
                Ok(())
            })?;
            let (res, ns) = l.launch(|| q.enqueue_kernel(&a.kernel, a.range));
            let ev = res.map_err(err)?;
            api(i, api_us(&ev));
            l.add_launch(&ev, ns, L::Return);
            let p = ev.profiling();
            a.run_ns += p.completed_ns - p.started_ns;
            a.launches += 1;
            timed(l, L::Copy, || -> Result<(), String> {
                for o in &mut a.outputs {
                    match o {
                        Output::F32 { buf, got, .. } => q.read_buffer(buf, 0, got).map_err(err)?,
                        Output::U32 { buf, got, .. } => q.read_buffer(buf, 0, got).map_err(err)?,
                    };
                }
                Ok(())
            })?;
            timed(l, L::Verify, || {
                a.outputs.iter().try_for_each(|o| match o {
                    Output::F32 {
                        want,
                        got,
                        floor,
                        tol,
                        ..
                    } => check_f32(a.name, got, want, *floor, *tol),
                    Output::U32 { want, got, .. } => check_u32(a.name, got, want),
                })
            })?;
        }
        Ok(())
    }

    fn app(&self, name: &str) -> &App {
        self.apps
            .iter()
            .find(|a| a.name == name)
            .expect("sweep app by name")
    }
}

impl Op for Sweep {
    fn op(&mut self, l: &mut Layers) -> Result<(), String> {
        self.pass(l, |_, _| {})
    }
}

fn host(a: &App, i: usize) -> &[f32] {
    match &a.inputs[i] {
        Input::F32(_, h) => h,
        Input::U32(..) => unreachable!("twin inputs are f32"),
    }
}

fn want(a: &App) -> &[f32] {
    match &a.outputs[0] {
        Output::F32 { want, .. } => want,
        Output::U32 { .. } => unreachable!("twin outputs are f32"),
    }
}

/// Time each OpenMP twin once on `team` and check it against the serial
/// reference; returns ns per item, in [`TWINS`] order.
fn run_twins(s: &Sweep, team: &Team, sz: &Sizes) -> Result<[f64; 4], String> {
    let mut out = [0f64; 4];
    for (slot, name) in TWINS.iter().enumerate() {
        let a = s.app(name);
        let mut got = vec![0f32; want(a).len()];
        let t = Instant::now();
        match *name {
            "square" => square::openmp(team, host(a, 0), &mut got, Schedule::default()),
            "vectoradd" => {
                vectoradd::openmp(team, host(a, 0), host(a, 1), &mut got, Schedule::default())
            }
            "matrixMul" => {
                matrixmul::openmp(team, host(a, 0), host(a, 1), &mut got, sz.mm.0, sz.mm.2)
            }
            "binomialoption" => binomial::openmp(
                team,
                host(a, 0),
                host(a, 1),
                host(a, 2),
                &mut got,
                BIN_STEPS,
            ),
            _ => unreachable!("TWINS lists the twins above"),
        }
        out[slot] = t.elapsed().as_nanos() as f64 / a.items as f64;
        let (floor, tol) = match &a.outputs[0] {
            Output::F32 { floor, tol, .. } => (*floor, *tol),
            Output::U32 { .. } => unreachable!("twin outputs are f32"),
        };
        check_f32(&format!("parfor {name}"), &got, want(a), floor, tol)?;
    }
    Ok(out)
}

pub fn run(args: &Args, host: &Host) -> Result<Outcome, String> {
    let sz = Sizes::resident();
    if !args.trace {
        return drive::timed_run(args, SETUPS, LAT_CAP, || {
            let ctx = context(&device(host.workers));
            Sweep::new(&ctx, &sz, args.seed, false).map(|(s, _)| s)
        });
    }
    let mut o = Outcome::default();
    let dev = device(host.workers);
    let ctx = context(&dev);
    let (mut plain, miss) = Sweep::new(&ctx, &sz, args.seed, false)?;
    o.set("queue.plan_miss_us", miss);
    let serial_s: f64 = plain.apps.iter().map(|a| a.reference_s).sum();
    o.set("serial.pass_ms", serial_s * 1e3);
    let launches = plain.apps.len() as u64;
    let untraced = drive::count_phase(
        &mut o,
        &mut plain,
        &dev,
        &[&ctx],
        COUNT_OPS,
        launches,
        args.seed,
    );

    // Per-kernel compute beside the OpenMP twins, interleaved pass by pass
    // on the same pool.
    let team = Team::with_pool(dev.pool().clone());
    let mut twins = vec![Vec::new(); TWINS.len()];
    for a in &mut plain.apps {
        (a.run_ns, a.launches) = (0, 0);
    }
    let mut passes = LoopOut::new(TWIN_PASSES as usize, 0, args.seed);
    for _ in 0..TWIN_PASSES {
        let t = Instant::now();
        let res = plain.op(&mut Layers::default());
        passes.record(res, t.elapsed().as_nanos() as u64, Layers::default());
        match run_twins(&plain, &team, &sz) {
            Ok(ns) => ns.iter().zip(&mut twins).for_each(|(v, acc)| acc.push(*v)),
            Err(e) => passes.record(Err(e), 0, Layers::default()),
        }
    }
    o.absorb(&passes);
    for a in &plain.apps {
        let ns = a.run_ns as f64 / a.launches.max(1) as f64 / a.items as f64;
        o.set(&format!("kernels.{}.ns_per_item", a.name), ns);
    }
    for (name, bytes_per_item) in [("square", 8.0), ("vectoradd", 12.0)] {
        let a = plain.app(name);
        let ns = a.run_ns as f64 / a.launches.max(1) as f64;
        o.set(
            &format!("kernels.{name}.gb_per_s_computed"),
            bytes_per_item * a.items as f64 / ns.max(1.0),
        );
    }
    for (name, v) in TWINS.iter().zip(twins) {
        o.set(&format!("parfor.{name}.ns_per_item"), median_f64(v));
    }

    let (mut traced, _) = Sweep::new(&ctx, &sz, args.seed, true)?;
    let q = traced.q.clone();
    let partition = [L::Copy, L::Api, L::Wake, L::Run, L::Return, L::Verify];
    drive::traced_phase(
        &mut o,
        &mut traced,
        &q,
        &untraced,
        TRACED_OPS,
        &partition,
        args.seed,
    );
    Ok(o)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Repeated passes stay correct: the accumulating and in-place kernels
    /// are reset through the queue before every launch.
    #[test]
    fn repeated_passes_verify() {
        let dev = device(1);
        let ctx = context(&dev);
        let (mut s, _) = Sweep::new(&ctx, &Sizes::tiny(), 5, false).unwrap();
        for _ in 0..3 {
            s.op(&mut Layers::default()).unwrap();
        }
    }

    /// A launch whose output never arrives leaves the sentinel behind and
    /// fails the pass.
    #[test]
    fn stale_output_fails_the_pass() {
        let dev = device(1);
        let ctx = context(&dev);
        let (mut s, _) = Sweep::new(&ctx, &Sizes::tiny(), 5, false).unwrap();
        let sq = &mut s.apps[0];
        sq.range = NDRange::d1(sq.items / 2);
        let err = s.op(&mut Layers::default()).unwrap_err();
        assert!(err.starts_with("square: index"), "{err}");
    }
}
