// Fixture for the missing-safety-inflation lint. `//~ <lint-id>` marks
// lines expecting a finding. This file is never compiled.

pub fn bad_raw_write(row: &mut Row, port: usize, v: f64) {
    row.mass[port] += v; //~ missing-safety-inflation
    row.cap[port] = v; //~ missing-safety-inflation
}

pub fn bad_fixed_point(row: &mut Row, port: usize, q: u64) {
    row.quanta[port] += q; //~ missing-safety-inflation
}

pub fn bad_transfer(m: &mut Matrix, row: &Row, i: usize, port: usize) {
    m.dropped_mass[i] = row.mass[port]; //~ missing-safety-inflation
}

pub fn good_inflated(row: &mut Row, port: usize, v: f64) {
    row.mass[port] += v * SAFETY;
    row.cap[port] = row.cap[port].max(v * SAFETY);
}

pub fn good_helper(row: &mut Row, port: usize, v: f64, cutoff: f64) {
    row.pad_absorb(port, v * SAFETY);
    row.quanta[port] += pad_quanta(v * SAFETY, cutoff);
    row.quanta[port] -= pad_quanta(v * SAFETY, cutoff);
}

pub fn good_read(row: &Row, port: usize) -> f64 {
    row.mass[port] + row.cap[port]
}

pub fn silenced(row: &mut Row, port: usize, v: f64) {
    // oblint::allow(missing-safety-inflation): fixture demo
    row.mass[port] = v;
}

pub fn text_only() {
    let _ = "row.mass[0] = v in a string must not fire";
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_write_raw() {
        let mut row = Row::default();
        row.mass[0] = 1.0;
    }
}
