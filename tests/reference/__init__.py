"""Reference implementations that tests pin the product code against."""
