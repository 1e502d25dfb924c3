"""Cross-process fetch benchmark (see METRICS.md)."""
