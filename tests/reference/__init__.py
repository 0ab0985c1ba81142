"""Reference implementations kept as test oracles, not as product options."""
