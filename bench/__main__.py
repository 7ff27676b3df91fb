from bench import use_checkout_sources

use_checkout_sources()

from bench.run import main  # noqa: E402  (needs the checkout's src on the path)

raise SystemExit(main())
