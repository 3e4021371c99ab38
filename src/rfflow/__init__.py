"""rfflow: spectral gradient-flow laboratory for random feature regression."""
