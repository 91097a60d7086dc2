//! Bid advisor: the §4.4 cost-optimization strategy as a tool.
//!
//! For an instance type and region, compare the DrAFTS-guaranteed bid in
//! every AZ against the On-demand price and recommend where (and whether)
//! to use the Spot tier.
//!
//! ```text
//! cargo run --release --example bid_advisor -- c3.xlarge us-west-2 6
//! ```
//! (type, region, hold duration in hours; all optional)

use drafts::core::optimizer::{self, Choice};
use drafts::core::predictor::{DraftsConfig, DraftsPredictor};
use drafts::market::{tracegen, Catalog, Combo, Region, DAY, HOUR};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let type_name = args.get(1).map(String::as_str).unwrap_or("c3.xlarge");
    let region = args
        .get(2)
        .and_then(|s| Region::parse(s))
        .unwrap_or(Region::UsWest2);
    let hours: u64 = args.get(3).and_then(|s| s.parse().ok()).unwrap_or(6);

    let catalog = Catalog::standard();
    let Some(ty) = catalog.type_id(type_name) else {
        eprintln!("unknown instance type '{type_name}'");
        std::process::exit(2);
    };
    let od = catalog.od_price(ty, region);
    println!("advising on {type_name} in {region} for a {hours}-hour hold (On-demand {od}/h)\n");

    let cfg = DraftsConfig::default();
    let now = 28 * DAY;
    for az in catalog.azs_offering(ty, region) {
        let combo = Combo::new(az, ty);
        let history = tracegen::generate(combo, catalog, &tracegen::TraceConfig::days(30, 7));
        let upto = history.series().index_at(now).expect("inside history");
        let predictor = DraftsPredictor::new(&history, cfg);
        let quote = predictor.bid_quote(upto, 0.99, hours * HOUR);
        let guaranteed = quote.guarantees(hours * HOUR);
        let choice = optimizer::choose(guaranteed.then_some(quote.bid), od);
        println!(
            "  {:<12} market {} | DrAFTS bid {} ({}) -> {}",
            az.name(),
            history.price_at(now).expect("inside history"),
            quote.bid,
            if guaranteed {
                "guaranteed"
            } else {
                "no guarantee"
            },
            match choice {
                Choice::Spot { bid } => format!(
                    "SPOT at max {} (worst case {} for {hours}h)",
                    bid,
                    bid.times(hours)
                ),
                Choice::OnDemand => format!("ON-DEMAND ({} for {hours}h)", od.times(hours)),
            }
        );
    }
}
