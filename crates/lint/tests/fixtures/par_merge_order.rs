//@ crate: qfc-core
// Parallel closures must be pure shard kernels: no captured-accumulator
// mutation, no shared-state primitives, and order-sensitive merges are
// confined to the deterministic shard-index fold. A team's kernel is a
// parallel closure; its driver is caller-thread code.

pub fn captured_accumulator(xs: &[f64]) -> f64 {
    let mut total = 0.0;
    par_map(xs, |x| {
        total += x; //~ ERROR par-merge-order
        0.0
    });
    total
}

pub fn closure_local_is_fine(xs: &[f64]) {
    par_map(xs, |x| {
        let mut acc = 0.0;
        acc += x;
        acc
    });
}

pub fn shared_state_in_closure(xs: &[f64]) {
    par_map(xs, |x| {
        let guard = shared.lock(); //~ ERROR par-merge-order
        *x
    });
}

pub fn order_sensitive_merge(n: u64, seed: u64) -> Vec<f64> {
    par_shots(n, seed, |shard| vec![0.0_f64; 1], |mut acc: Vec<Vec<f64>>| {
        let _last = acc.pop(); //~ ERROR par-merge-order
        Vec::new()
    })
}

pub fn index_ordered_merge(n: u64, seed: u64) -> Vec<f64> {
    par_shots(n, seed, |shard| vec![0.0_f64; 1], |acc: Vec<Vec<f64>>| {
        acc.into_iter().flatten().collect()
    })
}

pub fn captured_accumulator_in_team_kernel(slots: &mut [f64]) -> f64 {
    let mut total = 0.0;
    par_team(
        slots,
        |x: &f64, _, slot| {
            total += x; //~ ERROR par-merge-order
            *slot = *x;
        },
        |team| team.step(&mut 1.0),
    );
    total
}

pub fn team_driver_counts_steps(slots: &mut [f64]) -> usize {
    let mut steps = 0;
    par_team(
        slots,
        |x: &f64, _, slot| *slot = *x,
        |team| {
            for _ in 0..3 {
                steps += 1;
                team.step(&mut 1.0);
            }
        },
    );
    steps
}
