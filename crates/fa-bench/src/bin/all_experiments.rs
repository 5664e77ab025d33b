//! Runs every table and figure of the evaluation and prints a consolidated
//! report: the per-figure binaries README's "Running the experiments"
//! lists, in one run.
use fa_bench::experiments::{
    fig10_throughput, fig11_latency, fig12_cdf, fig13_energy, fig14_utilization, fig15_timeline,
    fig16_bigdata, fig3_motivation, tables, Campaign,
};
use fa_bench::runner::{RunSpec, SystemKind};
use flashabacus::SchedulerPolicy;

fn main() {
    let spec = RunSpec::parse(std::env::var_os).unwrap_or_else(|e| panic!("{e}"));
    println!(
        "FlashAbacus reproduction — full evaluation (data scale 1/{})\n",
        spec.scale.data_scale
    );
    println!("{}", tables::table1());
    println!("{}", tables::table2());
    println!("{}", fig3_motivation::report_sensitivity(spec.scale));
    println!("{}", fig3_motivation::report_breakdown(spec.scale));

    let homogeneous = Campaign::homogeneous(&spec);
    let heterogeneous = Campaign::heterogeneous(&spec);
    println!("{}", fig10_throughput::report_homogeneous(&homogeneous));
    println!("{}", fig10_throughput::report_heterogeneous(&heterogeneous));
    println!("{}", fig11_latency::report_homogeneous(&homogeneous));
    println!("{}", fig11_latency::report_heterogeneous(&heterogeneous));
    println!("{}", fig12_cdf::report(&spec));
    println!("{}", fig13_energy::report_homogeneous(&homogeneous));
    println!("{}", fig13_energy::report_heterogeneous(&heterogeneous));
    println!("{}", fig14_utilization::report_homogeneous(&homogeneous));
    println!(
        "{}",
        fig14_utilization::report_heterogeneous(&heterogeneous)
    );
    println!("{}", fig15_timeline::report(&spec));

    let bigdata = Campaign::bigdata(&spec);
    println!("{}", fig16_bigdata::report(&bigdata));

    let o3 = SystemKind::FlashAbacus(SchedulerPolicy::IntraO3);
    println!(
        "\nHeadline comparison (IntraO3 vs SIMD): homogeneous energy saving {:.1}%, heterogeneous energy saving {:.1}%",
        fig13_energy::mean_energy_saving(&homogeneous, o3) * 100.0,
        fig13_energy::mean_energy_saving(&heterogeneous, o3) * 100.0,
    );
    let mut ratios = Vec::new();
    for w in homogeneous
        .workloads
        .iter()
        .chain(heterogeneous.workloads.iter())
    {
        let campaign = if homogeneous.workloads.contains(w) {
            &homogeneous
        } else {
            &heterogeneous
        };
        let simd = campaign.expect(w, SystemKind::Simd).throughput_mb_s;
        let fa = campaign.expect(w, o3).throughput_mb_s;
        if simd > 0.0 {
            ratios.push(fa / simd);
        }
    }
    let mean_ratio = ratios.iter().sum::<f64>() / ratios.len().max(1) as f64;
    println!(
        "Headline comparison (IntraO3 vs SIMD): mean throughput improvement {:.0}% across all workloads",
        (mean_ratio - 1.0) * 100.0
    );
}
