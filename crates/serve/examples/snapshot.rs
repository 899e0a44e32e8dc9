//! Prints a live server's metrics snapshot as JSON — the input `servestat`
//! renders:
//!
//! ```text
//! cargo run -p ndirect-serve --example snapshot > results/metrics.json
//! cargo run -p ndirect-bench --bin servestat -- results/metrics.json
//! ```

use ndirect_serve::{ModelDef, ServeConfig, ServeError, Server};
use ndirect_tensor::{fill, ActLayout, ConvShape, Filter, FilterLayout, Tensor4};

const MODEL: &str = "snapshot-layer";

fn main() -> Result<(), ServeError> {
    let shape = ConvShape::square(1, 8, 16, 14, 3, 1);
    let filter = fill::random_filter(Filter::for_shape(&shape, FilterLayout::Kcrs), 1);
    let server = Server::try_new(
        ServeConfig {
            shards: 1,
            ..ServeConfig::default()
        },
        vec![ModelDef {
            name: MODEL.into(),
            shape,
            filter,
        }],
    )?;
    // Submit everything before waiting, so the batcher has peers to coalesce.
    let tickets = (0..32u64)
        .map(|seed| {
            let input = fill::random_tensor(Tensor4::input_for(&shape, ActLayout::Nchw), seed);
            server.submit(MODEL, input, None)
        })
        .collect::<Result<Vec<_>, _>>()?;
    for ticket in tickets {
        ticket.wait()?;
    }
    println!("{}", server.metrics_snapshot().to_json().pretty());
    server.shutdown();
    Ok(())
}
