//! PATUS-like C code emitter.
//!
//! The paper's workflow compiles every generated stencil through the PATUS
//! source-to-source compiler into C with OpenMP and AVX, then through gcc
//! ("double compilation"). We reproduce the *artifact* of that first stage:
//! a C translation unit implementing the blocked, unrolled, chunk-scheduled
//! sweep for a kernel and tuning vector. The emitted size drives the
//! compile-time model of `stencil-machine` and lets users inspect exactly
//! what transformation a tuning vector denotes.

use stencil_model::{StencilKernel, TuningVector};

/// Emits a self-contained C function computing one sweep of `kernel` with
/// the loop structure induced by `tuning`.
pub fn emit_c_kernel(kernel: &StencilKernel, tuning: &TuningVector) -> String {
    let mut out = String::with_capacity(4096);
    let name = sanitize(kernel.name());
    let ctype = kernel.dtype().c_name();
    let dim3 = kernel.dim() == 3;
    let (rx, ry, rz) = kernel.pattern().radius_per_axis();

    out.push_str(&format!(
        "/* generated by sorl-gen: kernel `{}` ({}), tuning {} */\n",
        kernel.name(),
        kernel.pattern().summary(),
        tuning
    ));
    out.push_str("#include <stddef.h>\n\n");
    out.push_str(&format!(
        "/* grid is padded by the halo ({rx}, {ry}, {rz}); IDX addresses padded storage */\n"
    ));
    out.push_str(&format!(
        "#define IDX(x, y, z) (((size_t)((z) + {rz}) * (ny + 2 * {ry}) + ((y) + {ry})) * \\\n\
         \x20                 (size_t)(nx + 2 * {rx}) + ((x) + {rx}))\n\n"
    ));

    // Signature: one const pointer per input buffer.
    let mut params: Vec<String> =
        (0..kernel.buffers()).map(|b| format!("const {ctype} *restrict in{b}")).collect();
    params.push(format!("{ctype} *restrict out"));
    params.push("int nx, int ny, int nz".to_string());
    out.push_str(&format!("void stencil_{name}({})\n{{\n", params.join(", ")));

    // Blocked loops with OpenMP chunked dynamic scheduling over tiles.
    out.push_str(&format!(
        "    #pragma omp parallel for collapse({}) schedule(dynamic, {})\n",
        if dim3 { 3 } else { 2 },
        tuning.c
    ));
    if dim3 {
        out.push_str(&format!("    for (int zz = 0; zz < nz; zz += {})\n", tuning.bz));
    }
    out.push_str(&format!("    for (int yy = 0; yy < ny; yy += {})\n", tuning.by));
    out.push_str(&format!("    for (int xx = 0; xx < nx; xx += {})\n", tuning.bx));
    out.push_str("    {\n");
    if dim3 {
        out.push_str(&format!(
            "        for (int z = zz; z < (zz + {} < nz ? zz + {} : nz); ++z)\n",
            tuning.bz, tuning.bz
        ));
    } else {
        out.push_str("        const int z = 0;\n");
    }
    out.push_str(&format!(
        "        for (int y = yy; y < (yy + {} < ny ? yy + {} : ny); ++y)\n",
        tuning.by, tuning.by
    ));
    if tuning.u > 1 {
        out.push_str(&format!("        #pragma GCC unroll {}\n", tuning.u));
    }
    out.push_str(&format!(
        "        for (int x = xx; x < (xx + {} < nx ? xx + {} : nx); ++x)\n",
        tuning.bx, tuning.bx
    ));

    // The update expression: uniform weights over the pattern, buffers in
    // round-robin over multi-count cells (matching WeightedKernel::uniform).
    let w = 1.0 / kernel.pattern().total_accesses().max(1) as f64;
    let mut terms = Vec::new();
    for (o, count) in kernel.pattern().iter() {
        for rep in 0..count {
            let b = (rep as usize) % kernel.buffers() as usize;
            terms.push(format!(
                "{w:.17}{} * in{b}[IDX(x + {}, y + {}, z + {})]",
                if kernel.dtype() == stencil_model::DType::F32 { "f" } else { "" },
                o.dx,
                o.dy,
                o.dz
            ));
        }
    }
    out.push_str("            out[IDX(x, y, z)] =\n                ");
    out.push_str(&terms.join("\n              + "));
    out.push_str(";\n    }\n}\n");
    out
}

fn sanitize(name: &str) -> String {
    name.chars().map(|c| if c.is_ascii_alphanumeric() { c } else { '_' }).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use stencil_model::StencilKernel;

    fn lap_tuning() -> TuningVector {
        TuningVector::new(64, 16, 8, 4, 2)
    }

    #[test]
    fn emits_blocked_parallel_loops() {
        let code = emit_c_kernel(&StencilKernel::laplacian(), &lap_tuning());
        assert!(code.contains("#pragma omp parallel for collapse(3) schedule(dynamic, 2)"));
        assert!(code.contains("zz += 8"));
        assert!(code.contains("yy += 16"));
        assert!(code.contains("xx += 64"));
        assert!(code.contains("#pragma GCC unroll 4"));
        assert!(code.contains("void stencil_laplacian(const double *restrict in0"));
    }

    #[test]
    fn one_term_per_access() {
        let k = StencilKernel::laplacian(); // 7 accesses
        let code = emit_c_kernel(&k, &lap_tuning());
        assert_eq!(code.matches("in0[IDX(").count(), 7);
    }

    #[test]
    fn multi_buffer_kernels_reference_every_buffer() {
        let k = StencilKernel::divergence(); // 3 buffers... but single-count cells
        let code = emit_c_kernel(&k, &lap_tuning());
        assert!(code.contains("in0"));
        // Divergence's combined pattern has single-count cells, so only
        // buffer 0 is referenced by the uniform scheme; the signature still
        // declares all three.
        assert!(code.contains("const double *restrict in2"));
    }

    #[test]
    fn two_d_kernels_collapse_two_loops() {
        let code = emit_c_kernel(&StencilKernel::blur(), &TuningVector::new(128, 8, 1, 0, 4));
        assert!(code.contains("collapse(2)"));
        assert!(code.contains("const int z = 0;"));
        assert!(!code.contains("zz +="));
        assert!(!code.contains("#pragma GCC unroll"));
        assert!(code.contains("float"));
    }

    #[test]
    fn float_kernels_use_f_suffix() {
        let code = emit_c_kernel(&StencilKernel::blur(), &TuningVector::new(8, 8, 1, 0, 1));
        assert!(code.contains("f * in0"));
        let code64 = emit_c_kernel(&StencilKernel::laplacian(), &TuningVector::new(8, 8, 8, 0, 1));
        assert!(!code64.contains("f * in0"));
    }

    #[test]
    fn sanitize_names() {
        let k = StencilKernel::new(
            "train-2d-line-x-r1-float-b1",
            StencilKernel::blur().pattern().clone(),
            1,
            stencil_model::DType::F32,
        )
        .unwrap();
        let code = emit_c_kernel(&k, &TuningVector::new(8, 8, 1, 0, 1));
        assert!(code.contains("void stencil_train_2d_line_x_r1_float_b1("));
    }
}
