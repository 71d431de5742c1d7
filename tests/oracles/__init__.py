"""Reference implementations the tests hold the production kernels equal to."""
